// util::Fifo: first-in first-out order, the consumed-prefix compaction and
// the erases the run and send queues use.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "util/fifo.hpp"

namespace eternal::util {
namespace {

std::vector<int> contents(const Fifo<int>& q) { return std::vector<int>(q.begin(), q.end()); }

TEST(Fifo, PopsInPushOrderAcrossCompactions) {
  Fifo<int> q;
  int next_out = 0;
  for (int i = 0; i < 100; ++i) {
    q.push_back(i);
    if (i % 3 != 0) {
      EXPECT_EQ(q.front(), next_out++);
      q.pop_front();
    }
  }
  EXPECT_EQ(q.size(), static_cast<std::size_t>(100 - next_out));
  for (std::size_t i = 0; i < q.size(); ++i) EXPECT_EQ(q[i], next_out + static_cast<int>(i));
  while (!q.empty()) {
    EXPECT_EQ(q.front(), next_out++);
    q.pop_front();
  }
  EXPECT_EQ(next_out, 100);
}

TEST(Fifo, PopReleasesTheItemAtOnce) {
  Fifo<std::shared_ptr<int>> q;
  auto held = std::make_shared<int>(1);
  q.push_back(held);
  q.push_back(std::make_shared<int>(2));
  q.push_back(std::make_shared<int>(3));
  q.pop_front();  // a consumed slot stays until compaction; its item does not
  EXPECT_EQ(held.use_count(), 1);
  EXPECT_EQ(*q.front(), 2);
}

TEST(Fifo, EraseAtTheFrontAndInTheMiddle) {
  Fifo<int> q;
  for (int i = 0; i < 8; ++i) q.push_back(i);
  q.pop_front();
  // A covered prefix (recovery) and a withdrawn run of fragments.
  q.erase(q.begin(), q.begin() + 2);
  EXPECT_EQ(contents(q), (std::vector<int>{3, 4, 5, 6, 7}));
  const auto at = std::lower_bound(q.begin(), q.end(), 5);
  q.erase(at, at + 2);
  EXPECT_EQ(contents(q), (std::vector<int>{3, 4, 7}));
  q.erase(q.begin(), q.end());
  EXPECT_TRUE(q.empty());
  q.push_back(9);
  EXPECT_EQ(contents(q), (std::vector<int>{9}));
}

TEST(Fifo, MoveLeavesTheSourceEmptyAndUsable) {
  Fifo<int> q;
  for (int i = 0; i < 4; ++i) q.push_back(i);
  q.pop_front();
  Fifo<int> carried = std::move(q);
  EXPECT_TRUE(q.empty());  // NOLINT(bugprone-use-after-move): moved-from is empty
  q.push_back(7);
  EXPECT_EQ(contents(q), (std::vector<int>{7}));
  q = std::move(carried);
  EXPECT_EQ(contents(q), (std::vector<int>{1, 2, 3}));
}

}  // namespace
}  // namespace eternal::util
