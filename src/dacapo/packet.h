// Da CaPo packets and the shared packet arena (paper Fig. 6: "The packets
// are situated in shared memory accessible by Da CaPo modules"; modules
// exchange *pointers* to packets over message queues).
//
// A Packet is a fixed-capacity buffer with headroom: C-modules prepend
// their protocol headers in place on the way down (PushHeader) and strip
// them on the way up (PopHeader), so payload bytes are written once by the
// A-module and never copied again inside the chain.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/clock.h"
#include "common/mutex.h"
#include "common/status.h"

namespace cool::dacapo {

class PacketArena;

class Packet {
 public:
  // Headroom for stacked module headers; 16 modules x 8 bytes fits easily.
  static constexpr std::size_t kHeadroom = 128;

  // Storage is default-initialized, not zero-filled: an arena of 512
  // 64 KiB packets would otherwise touch 32 MB per Da CaPo plane up front
  // (every byte is written before it is read — see WritablePayload).
  explicit Packet(std::size_t payload_capacity)
      : buf_(std::make_unique_for_overwrite<std::uint8_t[]>(
            kHeadroom + payload_capacity)),
        buf_size_(kHeadroom + payload_capacity),
        data_off_(kHeadroom),
        data_len_(0) {}

  // --- payload ------------------------------------------------------------
  // Replaces the packet content (resets any pushed headers).
  Status SetPayload(std::span<const std::uint8_t> payload) {
    if (payload.size() > buf_size_ - kHeadroom) {
      return InvalidArgumentError("payload exceeds packet capacity");
    }
    data_off_ = kHeadroom;
    data_len_ = payload.size();
    std::copy(payload.begin(), payload.end(),
              buf_.get() + static_cast<std::ptrdiff_t>(data_off_));
    return Status::Ok();
  }

  // Zero-copy fill seam: resets the packet (like SetPayload) to an
  // *uninitialized* payload of `n` octets and exposes it for writing, so
  // transports can receive and encoders can marshal directly into arena
  // packet memory instead of staging through an intermediate buffer.
  Result<std::span<std::uint8_t>> WritablePayload(std::size_t n) {
    if (n > buf_size_ - kHeadroom) {
      return Status(InvalidArgumentError("payload exceeds packet capacity"));
    }
    data_off_ = kHeadroom;
    data_len_ = n;
    return std::span<std::uint8_t>{buf_.get() + data_off_, data_len_};
  }

  std::span<std::uint8_t> Data() noexcept {
    return {buf_.get() + data_off_, data_len_};
  }
  std::span<const std::uint8_t> Data() const noexcept {
    return {buf_.get() + data_off_, data_len_};
  }
  std::size_t size() const noexcept { return data_len_; }

  // --- header stack ---------------------------------------------------------
  Status PushHeader(std::span<const std::uint8_t> header) {
    if (header.size() > data_off_) {
      return ResourceExhaustedError("packet headroom exhausted");
    }
    data_off_ -= header.size();
    data_len_ += header.size();
    std::copy(header.begin(), header.end(),
              buf_.get() + static_cast<std::ptrdiff_t>(data_off_));
    return Status::Ok();
  }

  // Exposes the first n octets and removes them from the packet view.
  Result<std::span<const std::uint8_t>> PopHeader(std::size_t n) {
    if (n > data_len_) return Status(ProtocolError("header pop underrun"));
    std::span<const std::uint8_t> header{buf_.get() + data_off_, n};
    data_off_ += n;
    data_len_ -= n;
    return header;
  }

  // Extends the packet at the tail (trailers, e.g. checksums; also the
  // in-place assembly seam: append message pieces one after another).
  // Subtraction form: data_off_ + data_len_ <= buf_size_ by invariant,
  // but a huge trailer must not wrap the sum past the bounds test.
  Status PushTrailer(std::span<const std::uint8_t> trailer) {
    if (trailer.size() > buf_size_ - data_off_ - data_len_) {
      return ResourceExhaustedError("packet tailroom exhausted");
    }
    std::copy(trailer.begin(), trailer.end(),
              buf_.get() +
                  static_cast<std::ptrdiff_t>(data_off_ + data_len_));
    data_len_ += trailer.size();
    return Status::Ok();
  }

  Result<std::span<const std::uint8_t>> PopTrailer(std::size_t n) {
    if (n > data_len_) return Status(ProtocolError("trailer pop underrun"));
    data_len_ -= n;
    return std::span<const std::uint8_t>{
        buf_.get() + data_off_ + data_len_, n};
  }

  // --- metadata --------------------------------------------------------------
  TimePoint created_at() const noexcept { return created_at_; }
  void set_created_at(TimePoint t) noexcept { created_at_ = t; }

  std::size_t capacity() const noexcept { return buf_size_ - kHeadroom; }

 private:
  friend class PacketArena;
  friend class PacketCache;

  void Reset() noexcept {
    data_off_ = kHeadroom;
    data_len_ = 0;
    created_at_ = TimePoint{};
  }

  std::unique_ptr<std::uint8_t[]> buf_;
  std::size_t buf_size_;
  std::size_t data_off_;
  std::size_t data_len_;
  TimePoint created_at_{};
};

// Deleter that returns packets to their arena instead of freeing them.
struct PacketReturner {
  PacketArena* arena = nullptr;
  void operator()(Packet* p) const noexcept;
};

using PacketPtr = std::unique_ptr<Packet, PacketReturner>;

// Pool of reusable packets ("shared memory" of the original system). The
// arena bounds total packet memory: Allocate fails with kResourceExhausted
// when the pool is fully in flight, which the resource manager uses as the
// memory-admission backstop.
class PacketArena {
 public:
  PacketArena(std::size_t packet_count, std::size_t payload_capacity);
  ~PacketArena();

  PacketArena(const PacketArena&) = delete;
  PacketArena& operator=(const PacketArena&) = delete;

  // Pops a packet from the free list.
  Result<PacketPtr> Allocate();

  // Allocates a packet carrying `payload`.
  Result<PacketPtr> Make(std::span<const std::uint8_t> payload);

  // Deep copy (used by ARQ modules to keep retransmission copies).
  Result<PacketPtr> Clone(const Packet& src);

  std::size_t capacity() const noexcept { return all_.size(); }
  std::size_t in_flight() const;
  std::size_t payload_capacity() const noexcept { return payload_capacity_; }

 private:
  friend struct PacketReturner;
  friend class PacketCache;
  void Return(Packet* p) noexcept;

  // Batch refill/flush used by PacketCache: up to `n` free packets move
  // into / all of `batch` moves out of the free list under one lock
  // acquisition. The raw pointers stay owned by all_.
  std::size_t TakeFreeBatch(std::size_t n, std::vector<Packet*>& out);
  void PutFreeBatch(std::vector<Packet*>& batch);

  const std::size_t payload_capacity_;
  mutable Mutex mu_{LockRank::kLeaf, "dacapo::PacketArena::mu_"};
  std::vector<std::unique_ptr<Packet>> all_;  // immutable after construction
  std::vector<Packet*> free_ COOL_GUARDED_BY(mu_);
};

// A small cache of free packets in front of a shared PacketArena, refilled
// and flushed in batches so one arena-mutex acquisition covers `batch_size`
// allocations. One cache per data-path endpoint (the application send seam,
// a T module's receive loop) keeps the hot allocation path off the shared
// free-list lock. Packets allocated here still carry the arena deleter, so
// they may be released anywhere, any time, without touching the cache.
// The arena must outlive the cache (it does: caches live in modules or
// planes, both owned by the chain that owns the arena).
class PacketCache {
 public:
  explicit PacketCache(PacketArena& arena, std::size_t batch_size = 16)
      : arena_(&arena), batch_size_(batch_size) {
    local_.reserve(batch_size_);
  }
  ~PacketCache() { Flush(); }

  PacketCache(const PacketCache&) = delete;
  PacketCache& operator=(const PacketCache&) = delete;

  // As PacketArena::Allocate, refilling from the arena in batches.
  Result<PacketPtr> Allocate();
  // As PacketArena::Make.
  Result<PacketPtr> Make(std::span<const std::uint8_t> payload);

  // Returns every cached free packet to the arena.
  void Flush();

  PacketArena& arena() noexcept { return *arena_; }

 private:
  PacketArena* const arena_;
  const std::size_t batch_size_;
  Mutex mu_{LockRank::kLeaf, "dacapo::PacketCache::mu_"};
  std::vector<Packet*> local_ COOL_GUARDED_BY(mu_);
};

}  // namespace cool::dacapo
