#include "dacapo/packet.h"

#include <gtest/gtest.h>
#include <malloc.h>

#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/thread.h"

namespace cool::dacapo {
namespace {

std::vector<std::uint8_t> Bytes(std::initializer_list<std::uint8_t> list) {
  return {list};
}

TEST(PacketTest, SetPayloadAndRead) {
  Packet p(1024);
  ASSERT_TRUE(p.SetPayload(Bytes({1, 2, 3})).ok());
  ASSERT_EQ(p.size(), 3u);
  EXPECT_EQ(p.Data()[0], 1);
  EXPECT_EQ(p.Data()[2], 3);
}

TEST(PacketTest, PayloadTooLargeFails) {
  Packet p(4);
  std::vector<std::uint8_t> big(5);
  EXPECT_EQ(p.SetPayload(big).code(), ErrorCode::kInvalidArgument);
}

TEST(PacketTest, PushPopHeader) {
  Packet p(64);
  ASSERT_TRUE(p.SetPayload(Bytes({9, 9})).ok());
  ASSERT_TRUE(p.PushHeader(Bytes({0xAA, 0xBB})).ok());
  EXPECT_EQ(p.size(), 4u);
  EXPECT_EQ(p.Data()[0], 0xAA);

  auto header = p.PopHeader(2);
  ASSERT_TRUE(header.ok());
  EXPECT_EQ((*header)[0], 0xAA);
  EXPECT_EQ(p.size(), 2u);
  EXPECT_EQ(p.Data()[0], 9);
}

TEST(PacketTest, HeaderStackNests) {
  Packet p(64);
  ASSERT_TRUE(p.SetPayload(Bytes({1})).ok());
  ASSERT_TRUE(p.PushHeader(Bytes({2})).ok());  // inner
  ASSERT_TRUE(p.PushHeader(Bytes({3})).ok());  // outer
  EXPECT_EQ((*p.PopHeader(1))[0], 3);
  EXPECT_EQ((*p.PopHeader(1))[0], 2);
  EXPECT_EQ(p.Data()[0], 1);
}

TEST(PacketTest, HeadroomExhaustionFails) {
  Packet p(16);
  std::vector<std::uint8_t> huge(Packet::kHeadroom + 1);
  EXPECT_EQ(p.PushHeader(huge).code(), ErrorCode::kResourceExhausted);
}

TEST(PacketTest, PopHeaderUnderrunFails) {
  Packet p(16);
  ASSERT_TRUE(p.SetPayload(Bytes({1})).ok());
  EXPECT_EQ(p.PopHeader(2).status().code(), ErrorCode::kProtocolError);
}

TEST(PacketTest, PushPopTrailer) {
  Packet p(16);
  ASSERT_TRUE(p.SetPayload(Bytes({5})).ok());
  ASSERT_TRUE(p.PushTrailer(Bytes({0xCC, 0xDD})).ok());
  EXPECT_EQ(p.size(), 3u);
  auto trailer = p.PopTrailer(2);
  ASSERT_TRUE(trailer.ok());
  EXPECT_EQ((*trailer)[0], 0xCC);
  EXPECT_EQ(p.size(), 1u);
}

TEST(PacketTest, TrailerOverflowFails) {
  Packet p(4);
  ASSERT_TRUE(p.SetPayload(Bytes({1, 2, 3, 4})).ok());
  EXPECT_EQ(p.PushTrailer(Bytes({9})).code(), ErrorCode::kResourceExhausted);
}

// Resident set of this process in KiB (/proc/self/status VmRSS).
long VmRssKib() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmRSS:") {
      long kib = -1;
      status >> kib;
      return kib;
    }
    status.ignore(1 << 12, '\n');
  }
  return -1;
}

// A Da CaPo plane's default arena (512 x 64 KiB) must not be touched when
// it is built: packet storage is default-initialized, and a zero-filled
// arena would add ~32 MB of resident memory to every plane. The bound is
// relative to the same allocations made raw, which is what the allocator
// touches by itself (about 2 MB; more under ASan, whose allocator fills
// and shadows every block) — a zero-filled arena exceeds it by ~30 MB.
TEST(ArenaTest, ConstructionDoesNotTouchPacketMemory) {
  constexpr std::size_t kPackets = 512;
  constexpr std::size_t kPayload = 64 * 1024;
  malloc_trim(0);
  const long before = VmRssKib();
  ASSERT_GT(before, 0);
  PacketArena arena(kPackets, kPayload);
  const long arena_kib = VmRssKib() - before;
  std::vector<std::unique_ptr<std::uint8_t[]>> raw;
  for (std::size_t i = 0; i < kPackets; ++i) {
    raw.push_back(std::make_unique_for_overwrite<std::uint8_t[]>(
        Packet::kHeadroom + kPayload));
  }
  const long raw_kib = VmRssKib() - before - arena_kib;
  EXPECT_LT(arena_kib, raw_kib + 4 * 1024)
      << "arena construction grew VmRSS by " << arena_kib
      << " KiB; the same blocks allocated raw by " << raw_kib << " KiB";
  auto pkt = arena.Make(Bytes({1, 2, 3}));
  ASSERT_TRUE(pkt.ok());
  EXPECT_EQ((*pkt)->Data()[2], 3);
}

TEST(ArenaTest, AllocateUpToCapacity) {
  PacketArena arena(3, 64);
  EXPECT_EQ(arena.capacity(), 3u);
  auto p1 = arena.Allocate();
  auto p2 = arena.Allocate();
  auto p3 = arena.Allocate();
  ASSERT_TRUE(p1.ok());
  ASSERT_TRUE(p2.ok());
  ASSERT_TRUE(p3.ok());
  EXPECT_EQ(arena.in_flight(), 3u);
  EXPECT_EQ(arena.Allocate().status().code(),
            ErrorCode::kResourceExhausted);
}

TEST(ArenaTest, ReleaseReturnsToPool) {
  PacketArena arena(1, 64);
  {
    auto p = arena.Allocate();
    ASSERT_TRUE(p.ok());
    EXPECT_EQ(arena.in_flight(), 1u);
  }
  EXPECT_EQ(arena.in_flight(), 0u);
  EXPECT_TRUE(arena.Allocate().ok());
}

TEST(ArenaTest, ReusedPacketIsReset) {
  PacketArena arena(1, 64);
  {
    auto p = arena.Allocate();
    ASSERT_TRUE(p.ok());
    ASSERT_TRUE((*p)->SetPayload(Bytes({1, 2, 3})).ok());
    ASSERT_TRUE((*p)->PushHeader(Bytes({9})).ok());
  }
  auto p = arena.Allocate();
  ASSERT_TRUE(p.ok());
  EXPECT_EQ((*p)->size(), 0u);
}

TEST(ArenaTest, MakeCopiesPayload) {
  PacketArena arena(2, 64);
  auto data = Bytes({7, 8});
  auto p = arena.Make(data);
  ASSERT_TRUE(p.ok());
  data[0] = 0;
  EXPECT_EQ((*p)->Data()[0], 7);
}

TEST(ArenaTest, CloneIsDeepAndKeepsTimestamp) {
  PacketArena arena(2, 64);
  auto p = arena.Make(Bytes({1, 2}));
  ASSERT_TRUE(p.ok());
  auto clone = arena.Clone(**p);
  ASSERT_TRUE(clone.ok());
  EXPECT_EQ((*clone)->created_at(), (*p)->created_at());
  (*p)->Data()[0] = 99;
  EXPECT_EQ((*clone)->Data()[0], 1);
}

TEST(ArenaTest, CloneCopiesHeadersToo) {
  // Clone duplicates the current Data() view — including pushed headers.
  PacketArena arena(2, 64);
  auto p = arena.Make(Bytes({1}));
  ASSERT_TRUE(p.ok());
  ASSERT_TRUE((*p)->PushHeader(Bytes({0xEE})).ok());
  auto clone = arena.Clone(**p);
  ASSERT_TRUE(clone.ok());
  ASSERT_EQ((*clone)->size(), 2u);
  EXPECT_EQ((*clone)->Data()[0], 0xEE);
}

TEST(ArenaTest, ConcurrentAllocateRelease) {
  PacketArena arena(16, 64);
  std::vector<cool::Thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 1000; ++i) {
        auto p = arena.Allocate();
        if (!p.ok()) {
          ++failures;
          continue;
        }
        (void)(*p)->SetPayload(Bytes({1}));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(arena.in_flight(), 0u);
  EXPECT_EQ(failures.load(), 0);  // 4 threads, 16 packets: never exhausted
}

}  // namespace
}  // namespace cool::dacapo
