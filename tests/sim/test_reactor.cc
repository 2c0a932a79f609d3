#include "sim/reactor.h"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "sim/waitset.h"

namespace cool::sim {
namespace {

bool WaitUntil(const std::function<bool()>& pred,
               Duration timeout = seconds(10)) {
  const TimePoint deadline = DeadlineFor(timeout);
  while (Now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(milliseconds(1));
  }
  return pred();
}

TEST(ReactorTest, ManualRegistrationFiresOnSchedule) {
  Reactor reactor(2);
  std::atomic<int> fired{0};
  const std::uint64_t id = reactor.AddManual([&fired] { ++fired; });
  reactor.Schedule(id);
  EXPECT_TRUE(WaitUntil([&] { return fired.load() >= 1; }));
  reactor.Remove(id);
}

TEST(ReactorTest, AttachedSourceFiresOnProbeAndSignal) {
  Reactor reactor(1);
  Watchable source;
  std::atomic<int> fired{0};
  auto reg = reactor.Add(
      [&source](const WaitSet& set, std::uint64_t token) {
        source.Watch(set, token);
        return true;
      },
      [&fired] { ++fired; });
  ASSERT_TRUE(reg.ok());
  // The attach probe alone delivers one callback.
  EXPECT_TRUE(WaitUntil([&] { return fired.load() >= 1; }));

  const int before = fired.load();
  source.SignalReady();
  EXPECT_TRUE(WaitUntil([&] { return fired.load() > before; }));
  reactor.Remove(*reg);
}

TEST(ReactorTest, AttachFailureReportsUnsupported) {
  Reactor reactor(1);
  auto reg = reactor.Add(
      [](const WaitSet&, std::uint64_t) { return false; }, [] {});
  ASSERT_FALSE(reg.ok());
  EXPECT_EQ(reg.status().code(), ErrorCode::kUnsupported);
}

TEST(ReactorTest, CallbackNeverRunsConcurrentlyWithItself) {
  Reactor reactor(4);
  std::atomic<int> in_flight{0};
  std::atomic<int> max_in_flight{0};
  std::atomic<int> runs{0};
  const std::uint64_t id = reactor.AddManual([&] {
    const int now = ++in_flight;
    int seen = max_in_flight.load();
    while (now > seen && !max_in_flight.compare_exchange_weak(seen, now)) {
    }
    std::this_thread::sleep_for(microseconds(200));
    --in_flight;
    ++runs;
  });
  // Keep scheduling while callbacks run: coalesced posts still mean the
  // callback fires repeatedly, but never against itself.
  {
    std::vector<Thread> posters;
    for (int t = 0; t < 3; ++t) {
      posters.emplace_back([&](std::stop_token st) {
        while (!st.stop_requested() && runs.load() < 8) {
          reactor.Schedule(id);
          std::this_thread::sleep_for(microseconds(50));
        }
      });
    }
    EXPECT_TRUE(WaitUntil([&] { return runs.load() >= 8; }));
    for (auto& p : posters) p.request_stop();
  }  // joins
  reactor.Remove(id);
  EXPECT_EQ(max_in_flight.load(), 1);
}

TEST(ReactorTest, RemoveIsABarrierAgainstARunningCallback) {
  Reactor reactor(1);
  std::atomic<bool> entered{false};
  std::atomic<bool> release{false};
  const std::uint64_t id = reactor.AddManual([&] {
    entered = true;
    while (!release.load()) std::this_thread::sleep_for(microseconds(100));
  });
  reactor.Schedule(id);
  ASSERT_TRUE(WaitUntil([&] { return entered.load(); }));

  std::atomic<bool> removed{false};
  Thread remover([&](std::stop_token) {
    reactor.Remove(id);
    removed = true;
  });
  std::this_thread::sleep_for(milliseconds(30));
  EXPECT_FALSE(removed.load());  // barrier: callback still mid-flight
  release = true;
  remover.join();
  EXPECT_TRUE(removed.load());
}

TEST(ReactorTest, SelfRemovalFromInsideCallbackDoesNotDeadlock) {
  Reactor reactor(1);
  std::atomic<std::uint64_t> self_id{0};
  std::atomic<int> runs{0};
  const std::uint64_t id = reactor.AddManual([&] {
    ++runs;
    reactor.Remove(self_id.load());
  });
  self_id = id;
  reactor.Schedule(id);
  EXPECT_TRUE(WaitUntil([&] { return runs.load() >= 1; }));
  // A second schedule after self-removal must be a no-op.
  reactor.Schedule(id);
  std::this_thread::sleep_for(milliseconds(30));
  EXPECT_EQ(runs.load(), 1);
}

TEST(ReactorTest, RemoveUnknownIdIsIdempotent) {
  Reactor reactor(1);
  reactor.Remove(424242);  // never registered: must not block or crash
}

TEST(ReactorTest, DispatchCounterAdvances) {
  Reactor reactor(1);
  std::atomic<int> fired{0};
  const std::uint64_t id = reactor.AddManual([&fired] { ++fired; });
  reactor.Schedule(id);
  ASSERT_TRUE(WaitUntil([&] { return fired.load() >= 1; }));
  EXPECT_GE(reactor.dispatches(), 1u);
  reactor.Remove(id);
}

TEST(ReactorTest, PinnedWorkersReportStableWorkerIndex) {
  Reactor::Options options;
  options.workers = 2;
  options.pin_workers = true;  // best-effort; must not change dispatch
  Reactor reactor(options);

  // Off-worker threads are outside every reactor.
  EXPECT_EQ(Reactor::CurrentWorkerIndex(), -1);

  std::atomic<int> runs{0};
  std::atomic<bool> stable{true};
  std::atomic<int> seen_index{-1};
  const std::uint64_t id = reactor.AddManual([&] {
    const int index = Reactor::CurrentWorkerIndex();
    int expected = -1;
    if (!seen_index.compare_exchange_strong(expected, index) &&
        expected != index) {
      stable = false;  // callback migrated between workers
    }
    ++runs;
  });
  for (int i = 0; i < 32; ++i) {
    reactor.Schedule(id);
    std::this_thread::sleep_for(microseconds(200));
  }
  ASSERT_TRUE(WaitUntil([&] { return runs.load() >= 1; }));
  EXPECT_TRUE(stable.load());
  EXPECT_EQ(seen_index.load(),
            static_cast<int>(reactor.WorkerIndexFor(id)));
  reactor.Remove(id);
}

TEST(ReactorTest, AddBatchDefersFiringUntilAttach) {
  Reactor reactor(2);
  constexpr std::size_t kTrain = 5;
  std::array<std::atomic<int>, kTrain> fired{};
  std::vector<Reactor::Callback> cbs;
  for (std::size_t i = 0; i < kTrain; ++i) {
    cbs.push_back([&fired, i] { ++fired[i]; });
  }
  const std::vector<std::uint64_t> ids = reactor.AddBatch(std::move(cbs));
  ASSERT_EQ(ids.size(), kTrain);

  // Phase one installed the callbacks but no readiness source exists yet:
  // a Schedule is dropped by the wait set, nothing may fire.
  for (const std::uint64_t id : ids) reactor.Schedule(id);
  std::this_thread::sleep_for(milliseconds(30));
  for (const auto& f : fired) EXPECT_EQ(f.load(), 0);

  // Phase two binds the sources; the attach probe fires each callback.
  std::array<Watchable, kTrain> sources;
  for (std::size_t i = 0; i < kTrain; ++i) {
    ASSERT_TRUE(reactor.Attach(
        ids[i], [&sources, i](const WaitSet& set, std::uint64_t token) {
          sources[i].Watch(set, token);
          return true;
        }));
  }
  for (std::size_t i = 0; i < kTrain; ++i) {
    EXPECT_TRUE(WaitUntil([&, i] { return fired[i].load() >= 1; }));
  }
  // And readiness keeps flowing afterwards, like a plain Add().
  const int before = fired[2].load();
  sources[2].SignalReady();
  EXPECT_TRUE(WaitUntil([&] { return fired[2].load() > before; }));
  for (const std::uint64_t id : ids) reactor.Remove(id);
}

TEST(ReactorTest, AttachFailureDropsTheBatchRegistration) {
  Reactor reactor(1);
  std::vector<Reactor::Callback> cbs;
  std::atomic<int> fired{0};
  cbs.push_back([&fired] { ++fired; });
  const std::vector<std::uint64_t> ids = reactor.AddBatch(std::move(cbs));
  ASSERT_EQ(ids.size(), 1u);
  EXPECT_FALSE(reactor.Attach(
      ids[0], [](const WaitSet&, std::uint64_t) { return false; }));
  reactor.Schedule(ids[0]);
  std::this_thread::sleep_for(milliseconds(30));
  EXPECT_EQ(fired.load(), 0);
  reactor.Remove(ids[0]);  // idempotent on the already-dropped id
}

TEST(ReactorTest, ScheduleAtFiresAtTheDeadlineNotBefore) {
  Reactor reactor(1);
  std::atomic<int> fired{0};
  const std::uint64_t id = reactor.AddManual([&fired] { ++fired; });
  const Stopwatch sw;
  reactor.ScheduleAt(id, Now() + milliseconds(120));
  std::this_thread::sleep_for(milliseconds(30));
  EXPECT_EQ(fired.load(), 0);  // deadline still in the future
  EXPECT_TRUE(WaitUntil([&] { return fired.load() >= 1; }));
  EXPECT_GE(sw.Elapsed(), milliseconds(100));
  reactor.Remove(id);
}

}  // namespace
}  // namespace cool::sim
