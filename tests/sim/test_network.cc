#include "sim/network.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <span>
#include <thread>

#include "common/thread.h"

namespace cool::sim {
namespace {

LinkProperties FastLink() {
  LinkProperties link;
  link.bandwidth_bps = 0;  // no pacing: keep unit tests quick
  link.latency = Duration::zero();
  return link;
}

TEST(AddressTest, ToStringAndEquality) {
  Address a{"hostA", 80};
  EXPECT_EQ(a.ToString(), "hostA:80");
  EXPECT_EQ(a, (Address{"hostA", 80}));
  EXPECT_NE(a, (Address{"hostA", 81}));
  EXPECT_NE(a, (Address{"hostB", 80}));
}

TEST(NetworkTest, ConnectToNobodyIsRefused) {
  Network net(FastLink());
  auto socket = net.Connect("client", {"server", 9});
  EXPECT_EQ(socket.status().code(), ErrorCode::kUnavailable);
}

TEST(NetworkTest, ListenTwiceOnSameAddressFails) {
  Network net(FastLink());
  auto l1 = net.Listen({"server", 9});
  ASSERT_TRUE(l1.ok());
  EXPECT_EQ(net.Listen({"server", 9}).status().code(),
            ErrorCode::kAlreadyExists);
}

TEST(NetworkTest, AddressReusableAfterListenerDies) {
  Network net(FastLink());
  {
    auto l1 = net.Listen({"server", 9});
    ASSERT_TRUE(l1.ok());
  }
  EXPECT_TRUE(net.Listen({"server", 9}).ok());
}

TEST(NetworkTest, StreamRoundTrip) {
  Network net(FastLink());
  auto listener = net.Listen({"server", 9});
  ASSERT_TRUE(listener.ok());

  cool::Thread server([&] {
    auto sock = (*listener)->Accept();
    ASSERT_TRUE(sock.ok());
    std::uint8_t buf[5];
    ASSERT_TRUE((*sock)->RecvExact(buf).ok());
    EXPECT_EQ(std::string(buf, buf + 5), "hello");
    ASSERT_TRUE((*sock)->Send(std::array<std::uint8_t, 2>{'o', 'k'}).ok());
  });

  auto client = net.Connect("client", {"server", 9});
  ASSERT_TRUE(client.ok());
  const std::string msg = "hello";
  ASSERT_TRUE((*client)
                  ->Send(std::span<const std::uint8_t>(
                      reinterpret_cast<const std::uint8_t*>(msg.data()),
                      msg.size()))
                  .ok());
  std::uint8_t reply[2];
  ASSERT_TRUE((*client)->RecvExact(reply).ok());
  EXPECT_EQ(reply[0], 'o');
  server.join();
}

TEST(NetworkTest, StreamDeliversLargeTransfersIntact) {
  Network net(FastLink());
  auto listener = net.Listen({"server", 9});
  ASSERT_TRUE(listener.ok());

  constexpr std::size_t kTotal = 1 << 20;
  cool::Thread server([&] {
    auto sock = (*listener)->Accept();
    ASSERT_TRUE(sock.ok());
    std::vector<std::uint8_t> received(kTotal);
    ASSERT_TRUE((*sock)->RecvExact(received).ok());
    for (std::size_t i = 0; i < kTotal; ++i) {
      ASSERT_EQ(received[i], static_cast<std::uint8_t>(i * 31 + 7)) << i;
    }
  });

  auto client = net.Connect("client", {"server", 9});
  ASSERT_TRUE(client.ok());
  std::vector<std::uint8_t> data(kTotal);
  for (std::size_t i = 0; i < kTotal; ++i) {
    data[i] = static_cast<std::uint8_t>(i * 31 + 7);
  }
  // Send in odd-sized pieces to exercise chunk reassembly.
  std::size_t sent = 0;
  while (sent < kTotal) {
    const std::size_t n = std::min<std::size_t>(40961, kTotal - sent);
    ASSERT_TRUE((*client)->Send({data.data() + sent, n}).ok());
    sent += n;
  }
  server.join();
}

// The reactor-side send path: TryWriteV never blocks. Once the 4 MiB
// receive window is full it refuses (writing nothing), and the write watch
// fires as soon as the reader frees space, after which it accepts again.
TEST(NetworkTest, TryWriteVRefusesOnFullWindowAndWatchFiresOnDrain) {
  Network net(FastLink());
  auto listener = net.Listen({"server", 10});
  ASSERT_TRUE(listener.ok());
  auto client = net.Connect("client", {"server", 10});
  ASSERT_TRUE(client.ok());
  auto server = (*listener)->Accept();
  ASSERT_TRUE(server.ok());

  WaitSet set;
  ASSERT_TRUE(set.Add(7));
  (*client)->WatchSend(set, 7);
  std::array<WaitSet::ReadyEvent, 4> events;
  ASSERT_EQ(set.Wait(events, milliseconds(100)), 1u);  // attach probe

  const std::vector<std::uint8_t> chunk(1 << 20, 0x5a);
  const std::span<const std::uint8_t> parts[] = {chunk};
  std::size_t accepted = 0;
  for (;;) {
    auto sent = (*client)->TrySendV(parts);
    ASSERT_TRUE(sent.ok());
    if (!*sent) break;
    ASSERT_LT(++accepted, 16u) << "window never filled";
  }
  EXPECT_EQ(accepted, 4u);  // 4 MiB window, 1 MiB writes
  EXPECT_FALSE((*client)->Writable());
  EXPECT_EQ(set.Wait(events, milliseconds(30)), 0u);  // nothing freed yet

  std::vector<std::uint8_t> sink(64 * 1024);
  auto got = (*server)->TryRecv(sink);
  ASSERT_TRUE(got.ok());
  ASSERT_GT(*got, 0u);
  ASSERT_EQ(set.Wait(events, seconds(1)), 1u);
  EXPECT_EQ(events[0].token, 7u);
  EXPECT_TRUE((*client)->Writable());
  auto again = (*client)->TrySendV(parts);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(*again);
}

TEST(NetworkTest, CloseUnblocksReader) {
  Network net(FastLink());
  auto listener = net.Listen({"server", 9});
  ASSERT_TRUE(listener.ok());
  auto client = net.Connect("client", {"server", 9});
  ASSERT_TRUE(client.ok());
  auto server_sock = (*listener)->Accept();
  ASSERT_TRUE(server_sock.ok());

  cool::Thread reader([&] {
    std::uint8_t buf[1];
    EXPECT_EQ((*server_sock)->Recv(buf).status().code(),
              ErrorCode::kUnavailable);
  });
  std::this_thread::sleep_for(milliseconds(20));
  (*client)->Close();
  reader.join();
}

TEST(NetworkTest, RecvForTimesOut) {
  Network net(FastLink());
  auto listener = net.Listen({"server", 9});
  ASSERT_TRUE(listener.ok());
  auto client = net.Connect("client", {"server", 9});
  ASSERT_TRUE(client.ok());
  std::uint8_t buf[1];
  const Stopwatch sw;
  EXPECT_EQ((*client)->RecvFor(buf, milliseconds(40)).status().code(),
            ErrorCode::kDeadlineExceeded);
  EXPECT_GE(sw.Elapsed(), milliseconds(35));
}

TEST(NetworkTest, AcceptForTimesOut) {
  Network net(FastLink());
  auto listener = net.Listen({"server", 9});
  ASSERT_TRUE(listener.ok());
  EXPECT_EQ((*listener)->AcceptFor(milliseconds(30)).status().code(),
            ErrorCode::kDeadlineExceeded);
}

TEST(NetworkTest, LatencyDelaysDelivery) {
  LinkProperties link;
  link.bandwidth_bps = 0;
  link.latency = milliseconds(30);
  Network net(link);
  auto listener = net.Listen({"server", 9});
  ASSERT_TRUE(listener.ok());

  const Stopwatch total;
  auto client = net.Connect("client", {"server", 9});
  ASSERT_TRUE(client.ok());
  // Handshake alone costs one RTT = 2 * latency.
  EXPECT_GE(total.Elapsed(), milliseconds(55));

  auto server_sock = (*listener)->Accept();
  ASSERT_TRUE(server_sock.ok());
  const Stopwatch sw;
  ASSERT_TRUE((*client)->Send(std::array<std::uint8_t, 1>{42}).ok());
  std::uint8_t buf[1];
  ASSERT_TRUE((*server_sock)->RecvExact(buf).ok());
  EXPECT_GE(sw.Elapsed(), milliseconds(25));  // one-way latency
}

TEST(NetworkTest, BandwidthPacesThroughput) {
  LinkProperties link;
  link.bandwidth_bps = 8'000'000;  // 1 MB/s
  link.latency = Duration::zero();
  Network net(link);
  auto listener = net.Listen({"server", 9});
  ASSERT_TRUE(listener.ok());
  auto client = net.Connect("client", {"server", 9});
  ASSERT_TRUE(client.ok());
  auto server_sock = (*listener)->Accept();
  ASSERT_TRUE(server_sock.ok());

  cool::Thread drain([&] {
    std::vector<std::uint8_t> buf(200 * 1024);
    (void)(*server_sock)->RecvExact(buf);
  });
  std::vector<std::uint8_t> data(200 * 1024);  // 200 KiB at 1 MB/s ~ 200 ms
  const Stopwatch sw;
  ASSERT_TRUE((*client)->Send(data).ok());
  const double elapsed = sw.ElapsedSeconds();
  drain.join();
  EXPECT_GT(elapsed, 0.15);
  EXPECT_LT(elapsed, 0.5);
}

// A blocking gathered write on a paced link reaches the reader part by
// part: the first part is readable once its own serialization completes,
// not only when the whole gather has been serialized. The writer is still
// paced for the whole gather.
TEST(NetworkTest, WriteVDeliversEachPartAsItsSerializationCompletes) {
  LinkProperties link;
  link.bandwidth_bps = 8'000'000;  // 1 MB/s
  link.latency = Duration::zero();
  Network net(link);
  auto listener = net.Listen({"server", 9});
  ASSERT_TRUE(listener.ok());
  auto client = net.Connect("client", {"server", 9});
  ASSERT_TRUE(client.ok());
  auto server_sock = (*listener)->Accept();
  ASSERT_TRUE(server_sock.ok());

  const std::vector<std::uint8_t> head(100, 1);        // ~0.1 ms
  const std::vector<std::uint8_t> tail(200 * 1024, 2);  // ~205 ms
  TimePoint head_readable{};
  bool intact = false;
  cool::Thread reader([&] {
    std::vector<std::uint8_t> buf(head.size());
    if (!(*server_sock)->RecvExact(buf).ok()) return;
    head_readable = Now();
    std::vector<std::uint8_t> rest(tail.size());
    intact = buf == head && (*server_sock)->RecvExact(rest).ok() &&
             rest == tail;
  });
  const std::span<const std::uint8_t> parts[] = {head, tail};
  const TimePoint start = Now();
  ASSERT_TRUE((*client)->SendV(parts).ok());
  const Duration send_time = Now() - start;
  reader.join();
  EXPECT_TRUE(intact);
  EXPECT_GT(send_time, milliseconds(150));            // the writer is paced
  EXPECT_LT(head_readable - start, milliseconds(100));  // the head is not
}

TEST(NetworkTest, LoopbackIsUnpaced) {
  LinkProperties slow;
  slow.bandwidth_bps = 1000;  // absurdly slow default...
  slow.latency = seconds(1);
  Network net(slow);
  auto listener = net.Listen({"same", 9});
  ASSERT_TRUE(listener.ok());
  const Stopwatch sw;
  auto client = net.Connect("same", {"same", 9});  // ...loopback ignores it
  ASSERT_TRUE(client.ok());
  EXPECT_LT(sw.Elapsed(), milliseconds(100));
}

TEST(NetworkTest, PerHostPairLinkOverride) {
  Network net(FastLink());
  LinkProperties slow;
  slow.latency = milliseconds(25);
  slow.bandwidth_bps = 0;
  net.SetLink("a", "b", slow);

  EXPECT_EQ(net.LinkBetween("a", "b").latency, milliseconds(25));
  EXPECT_EQ(net.LinkBetween("b", "a").latency, milliseconds(25));
  EXPECT_EQ(net.LinkBetween("a", "c").latency, Duration::zero());
}

TEST(DatagramTest, BasicSendReceive) {
  Network net(FastLink());
  auto rx = net.OpenPort({"server", 5});
  ASSERT_TRUE(rx.ok());
  auto tx = net.OpenPort({"client", 5});
  ASSERT_TRUE(tx.ok());

  ASSERT_TRUE(
      (*tx)->SendTo({"server", 5}, std::array<std::uint8_t, 3>{1, 2, 3}).ok());
  auto dgram = (*rx)->RecvFor(seconds(1));
  ASSERT_TRUE(dgram.has_value());
  EXPECT_EQ(dgram->payload, (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_EQ(dgram->from, (Address{"client", 5}));
}

TEST(DatagramTest, OversizedDatagramRejected) {
  LinkProperties link = FastLink();
  link.mtu = 16;
  Network net(link);
  auto tx = net.OpenPort({"client", 5});
  ASSERT_TRUE(tx.ok());
  std::vector<std::uint8_t> big(17);
  EXPECT_EQ((*tx)->SendTo({"server", 5}, big).code(),
            ErrorCode::kInvalidArgument);
}

TEST(DatagramTest, SendToUnknownPortIsSilentlyDropped) {
  Network net(FastLink());
  auto tx = net.OpenPort({"client", 5});
  ASSERT_TRUE(tx.ok());
  EXPECT_TRUE(
      (*tx)->SendTo({"nowhere", 5}, std::array<std::uint8_t, 1>{1}).ok());
}

TEST(DatagramTest, LossDropsApproximatelyConfiguredFraction) {
  LinkProperties link = FastLink();
  link.loss_rate = 0.5;
  Network net(link, /*rng_seed=*/7);
  auto rx = net.OpenPort({"server", 5});
  ASSERT_TRUE(rx.ok());
  auto tx = net.OpenPort({"client", 5});
  ASSERT_TRUE(tx.ok());

  constexpr int kSent = 400;
  for (int i = 0; i < kSent; ++i) {
    ASSERT_TRUE(
        (*tx)->SendTo({"server", 5}, std::array<std::uint8_t, 1>{1}).ok());
  }
  int received = 0;
  while ((*rx)->RecvFor(milliseconds(50)).has_value()) ++received;
  EXPECT_GT(received, kSent / 4);
  EXPECT_LT(received, 3 * kSent / 4);
}

TEST(DatagramTest, RecvUnblocksOnClose) {
  Network net(FastLink());
  auto rx = net.OpenPort({"server", 5});
  ASSERT_TRUE(rx.ok());
  cool::Thread receiver([&] { EXPECT_EQ((*rx)->Recv(), std::nullopt); });
  std::this_thread::sleep_for(milliseconds(20));
  (*rx)->Close();
  receiver.join();
}

TEST(DatagramTest, PortReusableAfterClose) {
  Network net(FastLink());
  {
    auto p = net.OpenPort({"h", 5});
    ASSERT_TRUE(p.ok());
  }
  EXPECT_TRUE(net.OpenPort({"h", 5}).ok());
}

TEST(DatagramTest, DeterministicLossWithSameSeed) {
  auto run = [](std::uint64_t seed) {
    LinkProperties link;
    link.bandwidth_bps = 0;
    link.latency = Duration::zero();
    link.loss_rate = 0.3;
    Network net(link, seed);
    auto rx = net.OpenPort({"s", 5});
    auto tx = net.OpenPort({"c", 5});
    std::vector<bool> delivered;
    for (int i = 0; i < 100; ++i) {
      (void)(*tx)->SendTo({"s", 5}, std::array<std::uint8_t, 1>{1});
      delivered.push_back((*rx)->RecvFor(milliseconds(5)).has_value());
    }
    return delivered;
  };
  EXPECT_EQ(run(11), run(11));
}

TEST(DatagramTest, JitterCanReorder) {
  LinkProperties link;
  link.bandwidth_bps = 0;
  link.latency = milliseconds(1);
  link.jitter = milliseconds(20);
  Network net(link, /*rng_seed=*/3);
  auto rx = net.OpenPort({"s", 5});
  ASSERT_TRUE(rx.ok());
  auto tx = net.OpenPort({"c", 5});
  ASSERT_TRUE(tx.ok());

  for (std::uint8_t i = 0; i < 20; ++i) {
    ASSERT_TRUE((*tx)->SendTo({"s", 5}, std::array<std::uint8_t, 1>{i}).ok());
  }
  std::vector<std::uint8_t> order;
  for (int i = 0; i < 20; ++i) {
    auto d = (*rx)->RecvFor(milliseconds(500));
    ASSERT_TRUE(d.has_value());
    order.push_back(d->payload[0]);
  }
  // All 20 delivered exactly once...
  std::vector<std::uint8_t> sorted = order;
  std::sort(sorted.begin(), sorted.end());
  for (std::uint8_t i = 0; i < 20; ++i) EXPECT_EQ(sorted[i], i);
  // ...and with 20ms jitter over 1ms latency, not in send order.
  EXPECT_FALSE(std::is_sorted(order.begin(), order.end()));
}

}  // namespace
}  // namespace cool::sim
