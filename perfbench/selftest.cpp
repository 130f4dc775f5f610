// Self-test of the client-visible history checker: a clean history must
// pass, and each kind of bad history must be caught. run.py runs this before
// every benchmark run; a checker that passes bad histories would make every
// `"correct": true` meaningless.
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "history.hpp"

namespace {

using perfbench::check_history;
using perfbench::Duration;
using perfbench::History;
using perfbench::OpKind;
using perfbench::ReplicaValue;
using perfbench::TimePoint;

TimePoint us(std::int64_t v) { return TimePoint(v * 1000); }

/// Three sequential incs (1, 2, 3) and a get in between that saw 1.
History clean_history() {
  History h(1);
  h.complete(0, h.begin(0, OpKind::kInc, us(0)), us(10), true, 1);
  h.complete(0, h.begin(0, OpKind::kGet, us(11)), us(20), true, 1);
  h.complete(0, h.begin(0, OpKind::kInc, us(21)), us(30), true, 2);
  h.complete(0, h.begin(0, OpKind::kInc, us(31)), us(40), true, 3);
  return h;
}

std::vector<std::vector<ReplicaValue>> replicas_at(std::int64_t v) {
  return {{{"node 1", v, true}, {"node 2", v, true}}};
}

struct Case {
  const char* name;
  std::function<std::vector<std::string>()> run;
  bool expect_clean;
};

}  // namespace

int main() {
  const std::vector<Case> cases = {
      {"clean history passes", [] { return check_history(clean_history(), replicas_at(3)); },
       true},
      {"duplicate inc value",
       [] {
         History h(1);
         h.complete(0, h.begin(0, OpKind::kInc, us(0)), us(10), true, 1);
         h.complete(0, h.begin(0, OpKind::kInc, us(0)), us(12), true, 1);
         return check_history(h, replicas_at(2));
       },
       false},
      {"inc value outside 1..N",
       [] {
         History h(1);
         h.complete(0, h.begin(0, OpKind::kInc, us(0)), us(10), true, 1);
         h.complete(0, h.begin(0, OpKind::kInc, us(0)), us(12), true, 3);
         return check_history(h, replicas_at(2));
       },
       false},
      {"inc order contradicts real time",
       [] {
         History h(1);
         h.complete(0, h.begin(0, OpKind::kInc, us(0)), us(10), true, 2);
         h.complete(0, h.begin(0, OpKind::kInc, us(20)), us(30), true, 1);
         return check_history(h, replicas_at(2));
       },
       false},
      {"stale get",
       [] {
         History h = clean_history();
         h.complete(0, h.begin(0, OpKind::kGet, us(50)), us(60), true, 2);
         return check_history(h, replicas_at(3));
       },
       false},
      {"get from the future",
       [] {
         History h = clean_history();
         h.complete(0, h.begin(0, OpKind::kGet, us(0)), us(5), true, 2);
         return check_history(h, replicas_at(3));
       },
       false},
      {"replica behind the clients",
       [] { return check_history(clean_history(), replicas_at(2)); }, false},
      {"replicas diverge",
       [] {
         return check_history(clean_history(),
                              {{{"node 1", 3, true}, {"node 2", 3, true}, {"node 3", 4, true}}});
       },
       false},
      {"backup ahead of the clients",
       [] {
         return check_history(clean_history(), {{{"node 1", 3, true}, {"node 2", 5, false}}});
       },
       false},
      {"no live replica", [] { return check_history(clean_history(), {{}}); }, false},
  };

  int failures = 0;
  for (const Case& c : cases) {
    const std::vector<std::string> violations = c.run();
    const bool ok = violations.empty() == c.expect_clean;
    std::printf("%-34s %s", c.name, ok ? "ok" : "FAILED");
    if (!violations.empty()) std::printf("  (%s)", violations.front().c_str());
    std::printf("\n");
    if (!ok) ++failures;
  }

  // Reply gaps from the fault instant (5 us): 5, 30, 65, then 5 to the end.
  History h(1);
  h.complete(0, h.begin(0, OpKind::kInc, us(0)), us(10), true, 1);
  h.complete(0, h.begin(0, OpKind::kInc, us(10)), us(40), true, 2);
  h.complete(0, h.begin(0, OpKind::kInc, us(100)), us(105), true, 3);
  const bool gap_ok = h.longest_reply_gap(0, us(5), us(110)) == Duration(65'000) &&
                      h.longest_reply_gap(0, us(106), us(200)) == Duration(94'000);
  std::printf("%-34s %s\n", "longest reply gap", gap_ok ? "ok" : "FAILED");
  if (!gap_ok) ++failures;

  if (failures != 0) {
    std::printf("perfbench_selftest: %d case(s) failed\n", failures);
    return 1;
  }
  return 0;
}
