#include "dacapo/mailbox.h"

#include <gtest/gtest.h>

#include <thread>

#include "common/thread.h"

namespace cool::dacapo {
namespace {

PacketPtr MakePacket(PacketArena& arena, std::uint8_t tag) {
  auto p = arena.Make(std::vector<std::uint8_t>{tag});
  EXPECT_TRUE(p.ok());
  return std::move(p).value();
}

// Pops one item; `status` reports kEmpty/kClosed when nothing came out.
Mailbox::BatchStatus PopOne(Mailbox& mb, bool accept_down,
                            Mailbox::PopResult* out) {
  std::vector<Mailbox::PopResult> popped;
  const auto st = mb.PopBatch(accept_down, 1, popped);
  if (st == Mailbox::BatchStatus::kItems) *out = std::move(popped.front());
  return st;
}

class MailboxTest : public ::testing::Test {
 protected:
  PacketArena arena_{32, 64};
};

TEST_F(MailboxTest, EmptyPopReturnsAtOnce) {
  Mailbox mb;
  Mailbox::PopResult r;
  EXPECT_EQ(PopOne(mb, true, &r), Mailbox::BatchStatus::kEmpty);
  EXPECT_FALSE(mb.HasEligible(true));
}

TEST_F(MailboxTest, ControlBeatsData) {
  Mailbox mb;
  mb.PushUp(MakePacket(arena_, 1));
  ASSERT_TRUE(mb.PushDown(MakePacket(arena_, 2)));
  ControlMsg msg;
  msg.kind = ControlMsg::Kind::kError;
  msg.text = "x";
  mb.PushControl(Direction::kUp, msg);

  Mailbox::PopResult r;
  ASSERT_EQ(PopOne(mb, true, &r), Mailbox::BatchStatus::kItems);
  ASSERT_EQ(r.kind, Mailbox::PopResult::Kind::kControl);
  EXPECT_EQ(r.control.text, "x");
  EXPECT_EQ(r.control_dir, Direction::kUp);
}

TEST_F(MailboxTest, UpBeatsDown) {
  Mailbox mb;
  ASSERT_TRUE(mb.PushDown(MakePacket(arena_, 2)));
  mb.PushUp(MakePacket(arena_, 1));

  Mailbox::PopResult r1;
  ASSERT_EQ(PopOne(mb, true, &r1), Mailbox::BatchStatus::kItems);
  ASSERT_EQ(r1.kind, Mailbox::PopResult::Kind::kData);
  EXPECT_EQ(r1.data.dir, Direction::kUp);
  EXPECT_EQ(r1.data.pkt->Data()[0], 1);

  Mailbox::PopResult r2;
  ASSERT_EQ(PopOne(mb, true, &r2), Mailbox::BatchStatus::kItems);
  ASSERT_EQ(r2.kind, Mailbox::PopResult::Kind::kData);
  EXPECT_EQ(r2.data.dir, Direction::kDown);
}

TEST_F(MailboxTest, DownGatedByAcceptFlag) {
  Mailbox mb;
  ASSERT_TRUE(mb.PushDown(MakePacket(arena_, 1)));
  // accept_down = false: the down packet is invisible.
  Mailbox::PopResult r;
  EXPECT_EQ(PopOne(mb, false, &r), Mailbox::BatchStatus::kEmpty);
  EXPECT_FALSE(mb.HasEligible(false));
  EXPECT_TRUE(mb.HasEligible(true));
  // ...but up traffic still flows.
  mb.PushUp(MakePacket(arena_, 2));
  ASSERT_EQ(PopOne(mb, false, &r), Mailbox::BatchStatus::kItems);
  ASSERT_EQ(r.kind, Mailbox::PopResult::Kind::kData);
  EXPECT_EQ(r.data.dir, Direction::kUp);
  // Re-enabling down releases the queued packet.
  ASSERT_EQ(PopOne(mb, true, &r), Mailbox::BatchStatus::kItems);
  ASSERT_EQ(r.kind, Mailbox::PopResult::Kind::kData);
  EXPECT_EQ(r.data.dir, Direction::kDown);
}

TEST_F(MailboxTest, BoundedDownBlocksAndBackpressures) {
  Mailbox mb(/*down_capacity=*/2);
  ASSERT_TRUE(mb.PushDown(MakePacket(arena_, 1)));
  ASSERT_TRUE(mb.PushDown(MakePacket(arena_, 2)));
  EXPECT_EQ(mb.down_size(), 2u);

  std::atomic<bool> third_pushed{false};
  cool::Thread pusher([&] {
    ASSERT_TRUE(mb.PushDown(MakePacket(arena_, 3)));
    third_pushed = true;
  });
  std::this_thread::sleep_for(milliseconds(30));
  EXPECT_FALSE(third_pushed.load());  // full: pusher is blocked

  Mailbox::PopResult r;
  ASSERT_EQ(PopOne(mb, true, &r), Mailbox::BatchStatus::kItems);
  ASSERT_EQ(r.kind, Mailbox::PopResult::Kind::kData);
  pusher.join();
  EXPECT_TRUE(third_pushed.load());
}

TEST_F(MailboxTest, CloseWakesBlockedPusher) {
  Mailbox mb(1);
  ASSERT_TRUE(mb.PushDown(MakePacket(arena_, 1)));
  cool::Thread pusher([&] {
    EXPECT_FALSE(mb.PushDown(MakePacket(arena_, 2)));
  });
  std::this_thread::sleep_for(milliseconds(20));
  mb.Close();
  pusher.join();
}

TEST_F(MailboxTest, CloseReportsClosedAndDropsQueued) {
  Mailbox mb;
  ASSERT_TRUE(mb.PushDown(MakePacket(arena_, 1)));
  mb.Close();
  Mailbox::PopResult r;
  EXPECT_EQ(PopOne(mb, true, &r), Mailbox::BatchStatus::kClosed);
  // Dropped packets returned to the arena.
  EXPECT_EQ(arena_.in_flight(), 0u);
}

TEST_F(MailboxTest, PushAfterCloseIsNoOp) {
  Mailbox mb;
  mb.Close();
  EXPECT_FALSE(mb.PushDown(MakePacket(arena_, 1)));
  mb.PushUp(MakePacket(arena_, 2));        // silently dropped
  mb.PushControl(Direction::kUp, ControlMsg{});
  Mailbox::PopResult r;
  EXPECT_EQ(PopOne(mb, true, &r), Mailbox::BatchStatus::kClosed);
  EXPECT_EQ(arena_.in_flight(), 0u);
}

TEST_F(MailboxTest, FifoWithinEachQueue) {
  Mailbox mb;
  for (std::uint8_t i = 0; i < 5; ++i) mb.PushUp(MakePacket(arena_, i));
  for (std::uint8_t i = 0; i < 5; ++i) {
    Mailbox::PopResult r;
    ASSERT_EQ(PopOne(mb, true, &r), Mailbox::BatchStatus::kItems);
    ASSERT_EQ(r.kind, Mailbox::PopResult::Kind::kData);
    EXPECT_EQ(r.data.pkt->Data()[0], i);
  }
}

// The consumer sleeps until the wake hook fires (a reactor registration
// waits the same way), then pops without blocking.
TEST_F(MailboxTest, WakesSleepingPopper) {
  Mailbox mb;
  std::atomic<bool> woken{false};
  mb.SetWake([&woken] { woken = true; });
  cool::Thread popper([&] {
    const TimePoint deadline = DeadlineFor(seconds(5));
    while (!woken.load() && Now() < deadline) {
      std::this_thread::sleep_for(milliseconds(1));
    }
    Mailbox::PopResult r;
    ASSERT_EQ(PopOne(mb, true, &r), Mailbox::BatchStatus::kItems);
    ASSERT_EQ(r.kind, Mailbox::PopResult::Kind::kData);
    EXPECT_EQ(r.data.pkt->Data()[0], 42);
  });
  std::this_thread::sleep_for(milliseconds(20));
  mb.PushUp(MakePacket(arena_, 42));
  popper.join();
}

// The consumer is a reactor registration: a push into an idle mailbox
// calls the wake hook once, further pushes ride on that wakeup until the
// consumer pops again, and the next push after a pop wakes it again.
TEST_F(MailboxTest, PushWakesAnIdleConsumerOnce) {
  Mailbox mb;
  std::atomic<int> wakes{0};
  mb.SetWake([&wakes] { ++wakes; });
  mb.PushUp(MakePacket(arena_, 1));
  mb.PushUp(MakePacket(arena_, 2));
  ASSERT_TRUE(mb.PushDown(MakePacket(arena_, 3)));
  EXPECT_EQ(wakes.load(), 1);

  std::vector<Mailbox::PopResult> out;
  ASSERT_EQ(mb.PopBatch(true, 8, out), Mailbox::BatchStatus::kItems);
  EXPECT_EQ(out.size(), 3u);
  mb.PushControl(Direction::kDown, ControlMsg{});
  EXPECT_EQ(wakes.load(), 2);

  // A consumer that declined down-data (stalled chain) is not woken by
  // more of it, only by up/control traffic.
  ASSERT_EQ(mb.PopBatch(false, 8, out), Mailbox::BatchStatus::kItems);
  ASSERT_TRUE(mb.PushDown(MakePacket(arena_, 4)));
  EXPECT_EQ(wakes.load(), 2);
  mb.PushUp(MakePacket(arena_, 5));
  EXPECT_EQ(wakes.load(), 3);
}

}  // namespace
}  // namespace cool::dacapo
