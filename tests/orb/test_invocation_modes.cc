// The invocation modes of the paper's Fig. 8 method list, at the stub
// level: call (two-way), send (one-way), defer/poll (deferred
// synchronous), notify (asynchronous reply) and cancel.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <optional>

#include "common/blocking_queue.h"
#include "orb/stub.h"
#include "sim/reactor.h"
#include "test_servants.h"

namespace cool::orb {
namespace {

using testing::CalcServant;

sim::LinkProperties QuickLink() {
  sim::LinkProperties link;
  link.bandwidth_bps = 0;
  link.latency = microseconds(100);
  return link;
}

// Collects async callback runs: how many, each outcome's code, and
// whether every run was on a reactor worker other than the caller's
// thread.
class Completions {
 public:
  Stub::AsyncCallback Callback() {
    return [this](Result<Stub::ReplyData> reply) {
      if (sim::Reactor::CurrentWorkerIndex() < 0 ||
          ThisThreadId() == caller_) {
        off_reactor_ = true;
      }
      ++runs_;
      codes_.Push(reply.ok() ? ErrorCode::kOk : reply.status().code());
    };
  }
  // The next outcome's code, or nullopt if none arrives within 1 s.
  std::optional<ErrorCode> Next() { return codes_.PopFor(seconds(1)); }
  int runs() const { return runs_.load(); }
  bool off_reactor() const { return off_reactor_.load(); }

 private:
  const ThreadId caller_ = ThisThreadId();
  std::atomic<int> runs_{0};
  std::atomic<bool> off_reactor_{false};
  BlockingQueue<ErrorCode> codes_;
};

class InvocationModesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    net_ = std::make_unique<sim::Network>(QuickLink());
    server_ = std::make_unique<ORB>(net_.get(), "server");
    client_ = std::make_unique<ORB>(net_.get(), "client");
    servant_ = std::make_shared<CalcServant>();
    auto ref = server_->RegisterServant("calc", servant_);
    ASSERT_TRUE(ref.ok());
    ref_ = *ref;
    ASSERT_TRUE(server_->Start().ok());
  }

  void TearDown() override { server_->Shutdown(); }

  std::unique_ptr<sim::Network> net_;
  std::unique_ptr<ORB> server_;
  std::unique_ptr<ORB> client_;
  std::shared_ptr<CalcServant> servant_;
  ObjectRef ref_;
};

TEST_F(InvocationModesTest, OnewaySend) {
  Stub stub(client_.get(), ref_);
  ASSERT_TRUE(stub.InvokeOneway("oneway_poke", {}).ok());
  ASSERT_TRUE(stub.InvokeOneway("oneway_poke", {}).ok());
  // One-way returns before the server processes; poll for the effect.
  const TimePoint deadline = Now() + seconds(2);
  while (servant_->pokes() < 2 && Now() < deadline) {
    PreciseSleep(milliseconds(1));
  }
  EXPECT_EQ(servant_->pokes(), 2);
}

TEST_F(InvocationModesTest, OnewayColocated) {
  auto local_ref = client_->RegisterServant(
      "local_calc", std::make_shared<CalcServant>());
  ASSERT_TRUE(local_ref.ok());
  auto servant = client_->adapter().Find(local_ref->object_key);
  Stub stub(client_.get(), *local_ref);
  ASSERT_TRUE(stub.InvokeOneway("oneway_poke", {}).ok());
  EXPECT_EQ(dynamic_cast<CalcServant*>(servant.get())->pokes(), 1);
}

TEST_F(InvocationModesTest, DeferredSynchronous) {
  Stub stub(client_.get(), ref_);
  cdr::Encoder args = stub.MakeArgsEncoder();
  args.PutString("deferred-work");
  auto id = stub.InvokeDeferred("slow_echo", args.buffer().view());
  ASSERT_TRUE(id.ok()) << id.status();

  // The client is free to do other work here; then collects the reply.
  auto reply = stub.PollReply(*id, seconds(5));
  ASSERT_TRUE(reply.ok()) << reply.status();
  cdr::Decoder dec = reply->MakeDecoder();
  EXPECT_EQ(*dec.GetString(), "deferred-work");
}

TEST_F(InvocationModesTest, DeferredPollWithoutBindingFails) {
  Stub stub(client_.get(), ref_);
  EXPECT_EQ(stub.PollReply(1).status().code(),
            ErrorCode::kFailedPrecondition);
}

TEST_F(InvocationModesTest, CancelAbandonsDeferredReply) {
  Stub stub(client_.get(), ref_);
  cdr::Encoder args = stub.MakeArgsEncoder();
  args.PutString("never-collected");
  auto id = stub.InvokeDeferred("slow_echo", args.buffer().view());
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(stub.CancelRequest(*id).ok());

  // A subsequent synchronous call is not confused by the stale reply.
  cdr::Encoder args2 = stub.MakeArgsEncoder();
  args2.PutLong(5);
  args2.PutLong(6);
  auto reply = stub.Invoke("add", args2.buffer().view(), seconds(5));
  ASSERT_TRUE(reply.ok()) << reply.status();
  cdr::Decoder dec = reply->MakeDecoder();
  EXPECT_EQ(*dec.GetLong(), 11);
}

TEST_F(InvocationModesTest, AsynchronousNotify) {
  Stub stub(client_.get(), ref_);
  BlockingQueue<std::string> results;
  cdr::Encoder args = stub.MakeArgsEncoder();
  args.PutString("async");
  ASSERT_TRUE(stub.InvokeAsync("echo", args.buffer().view(),
                               [&](Result<Stub::ReplyData> reply) {
                                 if (!reply.ok()) {
                                   results.Push(reply.status().ToString());
                                   return;
                                 }
                                 cdr::Decoder dec = reply->MakeDecoder();
                                 auto s = dec.GetString();
                                 results.Push(s.ok() ? *s : "?");
                               })
                  .ok());
  auto got = results.PopFor(seconds(5));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, "async");
}

TEST_F(InvocationModesTest, MultipleAsyncCallbacksAllFire) {
  Stub stub(client_.get(), ref_);
  BlockingQueue<corba::Long> results;
  for (int i = 0; i < 5; ++i) {
    cdr::Encoder args = stub.MakeArgsEncoder();
    args.PutLong(i);
    args.PutLong(100);
    ASSERT_TRUE(stub.InvokeAsync("add", args.buffer().view(),
                                 [&](Result<Stub::ReplyData> reply) {
                                   if (!reply.ok()) return;
                                   cdr::Decoder dec = reply->MakeDecoder();
                                   auto v = dec.GetLong();
                                   if (v.ok()) results.Push(*v);
                                 })
                    .ok());
  }
  std::vector<corba::Long> seen;
  for (int i = 0; i < 5; ++i) {
    auto got = results.PopFor(seconds(5));
    ASSERT_TRUE(got.has_value());
    seen.push_back(*got);
  }
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(seen, (std::vector<corba::Long>{100, 101, 102, 103, 104}));
}

TEST_F(InvocationModesTest, AsyncReplyRunsCallbackOnceOnTheReactor) {
  Completions done;
  {
    Stub stub(client_.get(), ref_);
    cdr::Encoder args = stub.MakeArgsEncoder();
    args.PutString("once");
    ASSERT_TRUE(
        stub.InvokeAsync("echo", args.buffer().view(), done.Callback()).ok());
    EXPECT_EQ(done.Next(), ErrorCode::kOk);
  }
  EXPECT_EQ(done.runs(), 1);
  EXPECT_FALSE(done.off_reactor());
}

TEST_F(InvocationModesTest, AsyncCallsInFlightFailWhenTheStubUnbinds) {
  Completions done;
  Stub stub(client_.get(), ref_);
  for (int i = 0; i < 5; ++i) {
    cdr::Encoder args = stub.MakeArgsEncoder();
    args.PutString("doomed");
    ASSERT_TRUE(stub.InvokeAsync("slow_echo", args.buffer().view(),
                                 done.Callback())
                    .ok());
  }
  ASSERT_TRUE(stub.Unbind().ok());
  // Unbind dropped the binding, whose engine ran every continuation.
  EXPECT_EQ(done.runs(), 5);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(done.Next(), ErrorCode::kUnavailable);
  EXPECT_FALSE(done.off_reactor());
}

TEST_F(InvocationModesTest, AsyncCallsInFlightFailBeforeTheStubIsGone) {
  Completions done;
  {
    Stub stub(client_.get(), ref_);
    for (int i = 0; i < 5; ++i) {
      cdr::Encoder args = stub.MakeArgsEncoder();
      args.PutString("doomed");
      ASSERT_TRUE(stub.InvokeAsync("slow_echo", args.buffer().view(),
                                   done.Callback())
                      .ok());
    }
  }
  EXPECT_EQ(done.runs(), 5);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(done.Next(), ErrorCode::kUnavailable);
  EXPECT_FALSE(done.off_reactor());
}

TEST_F(InvocationModesTest, AsyncColocatedCallbackRunsOnceOffTheCallerStack) {
  auto local_ref = client_->RegisterServant(
      "local_async", std::make_shared<CalcServant>());
  ASSERT_TRUE(local_ref.ok());
  Completions done;
  {
    Stub stub(client_.get(), *local_ref);
    cdr::Encoder args = stub.MakeArgsEncoder();
    args.PutString("here");
    ASSERT_TRUE(
        stub.InvokeAsync("echo", args.buffer().view(), done.Callback()).ok());
  }
  EXPECT_EQ(done.runs(), 1);  // before ~Stub returned
  EXPECT_EQ(done.Next(), ErrorCode::kOk);
  EXPECT_FALSE(done.off_reactor());
}

TEST_F(InvocationModesTest, DeferredOnColocatedObjectUnsupported) {
  auto local_ref = client_->RegisterServant(
      "local2", std::make_shared<CalcServant>());
  ASSERT_TRUE(local_ref.ok());
  Stub stub(client_.get(), *local_ref);
  EXPECT_EQ(stub.InvokeDeferred("echo", {}).status().code(),
            ErrorCode::kUnsupported);
}

TEST_F(InvocationModesTest, InvokeTimeoutSurfaces) {
  // Target an ORB that listens but never answers GIOP: a raw TCP listener.
  auto listener = net_->Listen({"blackhole", 1});
  ASSERT_TRUE(listener.ok());
  ObjectRef dead = ref_;
  dead.endpoint = {"blackhole", 1};
  Stub stub(client_.get(), dead);
  cdr::Encoder args = stub.MakeArgsEncoder();
  args.PutLong(1);
  args.PutLong(1);
  const auto reply = stub.Invoke("add", args.buffer().view(),
                                 milliseconds(200));
  EXPECT_EQ(reply.status().code(), ErrorCode::kDeadlineExceeded);
}

}  // namespace
}  // namespace cool::orb
