#include "sim/waitset.h"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <optional>
#include <thread>

#include "common/thread.h"
#include "sim/network.h"

namespace cool::sim {
namespace {

LinkProperties FastLink() {
  LinkProperties link;
  link.bandwidth_bps = 0;
  link.latency = Duration::zero();
  return link;
}

TEST(WaitSetTest, WatchPostsImmediateProbe) {
  WaitSet set;
  ASSERT_TRUE(set.Add(7));
  Watchable source;
  source.Watch(set, 7);  // the attach probe alone must wake the waiter

  std::array<WaitSet::ReadyEvent, 4> out{};
  const std::size_t n = set.Wait(out, milliseconds(200));
  ASSERT_EQ(n, 1u);
  EXPECT_EQ(out[0].token, 7u);
}

TEST(WaitSetTest, DuplicateAddRejected) {
  WaitSet set;
  EXPECT_TRUE(set.Add(1));
  EXPECT_FALSE(set.Add(1));
}

TEST(WaitSetTest, PostForUnregisteredTokenIsDropped) {
  WaitSet set;
  ASSERT_TRUE(set.Add(1));
  set.Post(99);  // never registered
  std::array<WaitSet::ReadyEvent, 4> out{};
  EXPECT_EQ(set.Wait(out, milliseconds(20)), 0u);
}

TEST(WaitSetTest, DueEntriesForOneTokenCollapse) {
  WaitSet set;
  ASSERT_TRUE(set.Add(3));
  Watchable source;
  source.Watch(set, 3);
  source.SignalReady();
  source.SignalReady();
  source.SignalReady();

  std::array<WaitSet::ReadyEvent, 8> out{};
  const std::size_t n = set.Wait(out, milliseconds(200));
  ASSERT_EQ(n, 1u);
  EXPECT_EQ(out[0].token, 3u);
  // Nothing left behind once the due entries are harvested.
  EXPECT_EQ(set.Wait(out, milliseconds(20)), 0u);
}

TEST(WaitSetTest, FutureEntryWakesAtItsDueTime) {
  WaitSet set;
  ASSERT_TRUE(set.Add(5));
  Watchable source;
  source.Watch(set, 5);
  std::array<WaitSet::ReadyEvent, 4> out{};
  ASSERT_EQ(set.Wait(out, milliseconds(50)), 1u);  // drain the attach probe

  const TimePoint due = Now() + milliseconds(60);
  source.SignalReady(due);
  // Not yet due: a short wait must time out instead of delivering early.
  EXPECT_EQ(set.Wait(out, milliseconds(5)), 0u);
  // Long enough: the entry fires once its delivery time arrives.
  ASSERT_EQ(set.Wait(out, seconds(5)), 1u);
  EXPECT_EQ(out[0].token, 5u);
  EXPECT_GE(Now(), due);
}

TEST(WaitSetTest, PostAtDeliversAtTheDeadline) {
  WaitSet set;
  ASSERT_TRUE(set.Add(9));
  const TimePoint due = Now() + milliseconds(60);
  set.PostAt(9, due);  // the reactor's timer primitive
  std::array<WaitSet::ReadyEvent, 4> out{};
  // Not yet due: a short wait must time out instead of delivering early.
  EXPECT_EQ(set.Wait(out, milliseconds(5)), 0u);
  ASSERT_EQ(set.Wait(out, seconds(5)), 1u);
  EXPECT_EQ(out[0].token, 9u);
  EXPECT_GE(Now(), due);
}

TEST(WaitSetTest, PostAtEntriesAreLazilyCancelledByRemove) {
  WaitSet set;
  ASSERT_TRUE(set.Add(6));
  set.PostAt(6, Now() + milliseconds(10));
  set.Remove(6);  // pending timer entry goes stale, never delivered
  std::array<WaitSet::ReadyEvent, 4> out{};
  EXPECT_EQ(set.Wait(out, milliseconds(60)), 0u);
}

TEST(WaitSetTest, CoalescedNotifiesLoseNoWakeups) {
  // Post -> Wait -> Post -> Wait: the notify_pending coalescing flag must
  // be reset by each Wait pass, or the second post's wakeup is swallowed.
  WaitSet set;
  ASSERT_TRUE(set.Add(12));
  std::array<WaitSet::ReadyEvent, 4> out{};
  for (int round = 0; round < 3; ++round) {
    set.Post(12);
    ASSERT_EQ(set.Wait(out, seconds(5)), 1u) << "round " << round;
    EXPECT_EQ(out[0].token, 12u);
  }
}

TEST(WaitSetTest, CrossThreadPostWakesBlockedWaiter) {
  WaitSet set;
  ASSERT_TRUE(set.Add(11));
  Thread poster([&set](std::stop_token) {
    std::this_thread::sleep_for(milliseconds(20));
    set.Post(11);
  });
  std::array<WaitSet::ReadyEvent, 1> out{};
  const std::size_t n = set.Wait(out, seconds(10));
  poster.join();
  ASSERT_EQ(n, 1u);
  EXPECT_EQ(out[0].token, 11u);
}

TEST(WaitSetTest, RemoveDiscardsPendingEntries) {
  WaitSet set;
  ASSERT_TRUE(set.Add(2));
  set.Post(2);
  set.Remove(2);
  std::array<WaitSet::ReadyEvent, 4> out{};
  EXPECT_EQ(set.Wait(out, milliseconds(20)), 0u);
}

TEST(WaitSetTest, CloseWakesWaiter) {
  WaitSet set;
  ASSERT_TRUE(set.Add(1));
  Thread closer([&set](std::stop_token) {
    std::this_thread::sleep_for(milliseconds(20));
    set.Close();
  });
  std::array<WaitSet::ReadyEvent, 1> out{};
  EXPECT_EQ(set.Wait(out, seconds(10)), 0u);
  EXPECT_TRUE(set.closed());
  closer.join();
}

TEST(WaitSetTest, SignalAfterWaitSetDestructionIsSafe) {
  Watchable source;
  {
    WaitSet set;
    ASSERT_TRUE(set.Add(4));
    source.Watch(set, 4);
    EXPECT_TRUE(source.watched());
  }
  // Must not touch the dead set; the source detaches from it instead.
  source.SignalReady();
  EXPECT_FALSE(source.watched());
  source.SignalReady();
  EXPECT_FALSE(source.watched());
}

TEST(WaitSetTest, ReattachReplacesFirstWaitSet) {
  WaitSet first;
  WaitSet second;
  ASSERT_TRUE(first.Add(1));
  ASSERT_TRUE(second.Add(2));
  Watchable source;
  source.Watch(first, 1);
  std::array<WaitSet::ReadyEvent, 2> out{};
  ASSERT_EQ(first.Wait(out, milliseconds(200)), 1u);  // attach probe

  source.Watch(second, 2);
  ASSERT_EQ(second.Wait(out, milliseconds(200)), 1u);  // attach probe
  source.SignalReady();
  ASSERT_EQ(second.Wait(out, milliseconds(200)), 1u);
  EXPECT_EQ(out[0].token, 2u);
  EXPECT_EQ(first.Wait(out, milliseconds(20)), 0u);  // detached: no signal
}

// --- AwaitReady: the blocking twin of a non-blocking call -------------------

TEST(AwaitReadyTest, ReadySourceIsNeverAttached) {
  int attaches = 0;
  const std::optional<int> got = AwaitReady(
      [&](const WaitSet&, WaitSet::Token) { return ++attaches > 0; },
      [] { return std::optional<int>(7); }, TimePoint::max());
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, 7);
  EXPECT_EQ(attaches, 0);
}

TEST(AwaitReadyTest, RespectsTheDeadlineAndLeavesTheSourceUnwatched) {
  Watchable source;
  int tries = 0;
  const Stopwatch sw;
  const std::optional<int> got = AwaitReady(
      [&](const WaitSet& set, WaitSet::Token token) {
        source.Watch(set, token);
        return true;
      },
      [&]() -> std::optional<int> {
        ++tries;
        return std::nullopt;
      },
      Now() + milliseconds(40));
  EXPECT_FALSE(got.has_value());
  EXPECT_GE(sw.Elapsed(), milliseconds(40));
  EXPECT_LT(sw.Elapsed(), seconds(2));
  // First try, then one retry for the attach probe and one at the
  // deadline: waiting is not polling.
  EXPECT_LE(tries, 3);
  EXPECT_FALSE(source.watched());
}

TEST(AwaitReadyTest, WakesAtAFutureDueSignal) {
  Watchable source;
  const TimePoint due = Now() + milliseconds(50);
  const std::optional<TimePoint> got = AwaitReady(
      [&](const WaitSet& set, WaitSet::Token token) {
        source.Watch(set, token);
        source.SignalReady(due);  // e.g. a chunk still in flight
        return true;
      },
      [&]() -> std::optional<TimePoint> {
        const TimePoint now = Now();
        if (now < due) return std::nullopt;
        return now;
      },
      Now() + seconds(10));
  ASSERT_TRUE(got.has_value());
  EXPECT_GE(*got, due);
  EXPECT_LT(*got, due + seconds(2));  // woken by the signal, not the deadline
  EXPECT_FALSE(source.watched());
}

TEST(AwaitReadyTest, CrossThreadSignalEndsTheWait) {
  Watchable source;
  std::atomic<bool> ready{false};
  Thread producer([&](std::stop_token) {
    std::this_thread::sleep_for(milliseconds(20));
    ready.store(true);
    source.SignalReady();
  });
  const std::optional<bool> got = AwaitReady(
      [&](const WaitSet& set, WaitSet::Token token) {
        source.Watch(set, token);
        return true;
      },
      [&]() -> std::optional<bool> {
        if (!ready.load()) return std::nullopt;
        return true;
      },
      Now() + seconds(10));
  producer.join();
  EXPECT_TRUE(got.has_value());
  EXPECT_FALSE(source.watched());
}

TEST(AwaitReadyTest, RefusedAttachReturnsAtOnce) {
  const Stopwatch sw;
  const std::optional<int> got = AwaitReady(
      [](const WaitSet&, WaitSet::Token) { return false; },
      [] { return std::optional<int>(); }, TimePoint::max());
  EXPECT_FALSE(got.has_value());
  EXPECT_LT(sw.Elapsed(), seconds(1));
}

// --- integration with the simulated network -------------------------------

TEST(WaitSetNetworkTest, StreamDataArrivalWakesWaitSet) {
  Network net(FastLink());
  auto listener = net.Listen({"server", 9});
  ASSERT_TRUE(listener.ok());
  auto client = net.Connect("client", {"server", 9});
  ASSERT_TRUE(client.ok());
  auto accepted = (*listener)->Accept();
  ASSERT_TRUE(accepted.ok());

  WaitSet set;
  ASSERT_TRUE(set.Add(1));
  (*accepted)->WatchRecv(set, 1);
  std::array<WaitSet::ReadyEvent, 2> out{};
  (void)set.Wait(out, milliseconds(50));  // drain the attach probe

  const std::array<std::uint8_t, 3> payload{1, 2, 3};
  ASSERT_TRUE((*client)->Send(payload).ok());

  ASSERT_EQ(set.Wait(out, seconds(10)), 1u);
  EXPECT_EQ(out[0].token, 1u);
  std::array<std::uint8_t, 8> buf{};
  auto got = (*accepted)->TryRecv(buf);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, 3u);
}

TEST(WaitSetNetworkTest, PendingConnectWakesAcceptWatch) {
  Network net(FastLink());
  auto listener = net.Listen({"server", 9});
  ASSERT_TRUE(listener.ok());

  WaitSet set;
  ASSERT_TRUE(set.Add(1));
  (*listener)->WatchAccept(set, 1);
  std::array<WaitSet::ReadyEvent, 2> out{};
  (void)set.Wait(out, milliseconds(50));  // attach probe (nothing pending)

  auto client = net.Connect("client", {"server", 9});
  ASSERT_TRUE(client.ok());

  ASSERT_EQ(set.Wait(out, seconds(10)), 1u);
  auto accepted = (*listener)->TryAccept();
  ASSERT_TRUE(accepted.ok());
  EXPECT_NE(*accepted, nullptr);
}

}  // namespace
}  // namespace cool::sim
