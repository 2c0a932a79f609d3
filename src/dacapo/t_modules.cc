#include "dacapo/t_modules.h"

#include <algorithm>
#include <array>
#include <span>
#include <vector>

#include "common/logging.h"

namespace cool::dacapo {

namespace {

void NotifyPeerClosed(ModulePort& port) {
  ControlMsg msg;
  msg.kind = ControlMsg::Kind::kPeerClosed;
  msg.text = "transport closed";
  port.ControlUp(std::move(msg));
}

// Frames a PollReceive call forwards before yielding the worker to other
// registrations (it reports "more pending" and the chain runs again).
constexpr std::size_t kMaxFramesPerPoll = 4 * PacketBatch::kCapacity;

std::array<std::uint8_t, 4> LengthPrefix(std::size_t n) {
  return {static_cast<std::uint8_t>(n), static_cast<std::uint8_t>(n >> 8),
          static_cast<std::uint8_t>(n >> 16),
          static_cast<std::uint8_t>(n >> 24)};
}

}  // namespace

// --- TStreamModule ----------------------------------------------------------

Status TStreamModule::OnStart(ModulePort& port) {
  rx_cache_ = std::make_unique<PacketCache>(port.arena());
  return Status::Ok();
}

void TStreamModule::OnStop(ModulePort& port) {
  (void)port;
  socket_->Close();
}

void TStreamModule::WatchReadiness(const sim::WaitSet& set,
                                   std::uint64_t token) {
  socket_->WatchRecv(set, token);
  socket_->WatchSend(set, token);
}

void TStreamModule::HandleData(Direction dir, PacketPtr pkt,
                               ModulePort& port) {
  PacketBatch batch;  // a full window drops it: nothing stalls a lone call
  batch.PushBack(std::move(pkt));
  ProcessBurst(dir, batch, port);
}

void TStreamModule::ProcessBurst(Direction dir, PacketBatch& batch,
                                 ModulePort& port) {
  if (dir == Direction::kUp) {  // nothing below us
    batch.Clear();
    return;
  }
  // Gather the whole train into one vectored send: a 32-packet burst costs
  // one socket call (one pacing/enqueue round-trip) instead of 64.
  std::array<std::array<std::uint8_t, 4>, PacketBatch::kCapacity> prefixes;
  std::array<std::span<const std::uint8_t>, 2 * PacketBatch::kCapacity> parts;
  const std::size_t n = batch.size();
  for (std::size_t i = 0; i < n; ++i) {
    prefixes[i] = LengthPrefix(batch[i]->size());
    parts[2 * i] = prefixes[i];
    parts[2 * i + 1] = batch[i]->Data();
  }
  auto sent = socket_->TrySendV({parts.data(), 2 * n});
  if (sent.ok() && !*sent) {
    // Window full: the train stays unconsumed and stalls in the chain
    // until the peer reads (the send watch reschedules the chain).
    write_blocked_ = true;
    return;
  }
  write_blocked_ = false;
  if (!sent.ok()) NotifyPeerClosed(port);
  batch.Clear();
}

bool TStreamModule::PollReceive(ModulePort& port) {
  if (rx_closed_) return false;
  std::vector<PacketPtr> train;
  bool more = false;
  for (std::size_t frames = 0;; ++frames) {
    if (frames == kMaxFramesPerPoll) {
      more = true;
      break;
    }
    const RxStep step = ReadFrame(port, train);
    if (step == RxStep::kClosed) {
      rx_closed_ = true;
      break;
    }
    if (step == RxStep::kIdle) break;
    if (train.size() >= PacketBatch::kCapacity) port.ForwardUpBatch(train);
  }
  if (!train.empty()) port.ForwardUpBatch(train);
  if (rx_closed_) NotifyPeerClosed(port);
  return more;
}

TStreamModule::RxStep TStreamModule::ReadFrame(ModulePort& port,
                                               std::vector<PacketPtr>& train) {
  while (rx_prefix_got_ < rx_prefix_.size()) {
    auto got = socket_->TryRecv(std::span(rx_prefix_).subspan(rx_prefix_got_));
    if (!got.ok()) return RxStep::kClosed;
    if (*got == 0) return RxStep::kIdle;
    rx_prefix_got_ += *got;
    if (rx_prefix_got_ < rx_prefix_.size()) continue;
    const std::uint32_t len = static_cast<std::uint32_t>(rx_prefix_[0]) |
                              static_cast<std::uint32_t>(rx_prefix_[1]) << 8 |
                              static_cast<std::uint32_t>(rx_prefix_[2]) << 16 |
                              static_cast<std::uint32_t>(rx_prefix_[3]) << 24;
    if (len > port.arena().payload_capacity()) {
      COOL_LOG(kError, "dacapo")
          << port.channel_name() << "/t_stream: oversized frame " << len;
      return RxStep::kClosed;
    }
    rx_body_len_ = len;
    rx_body_got_ = 0;
    auto pkt = rx_cache_->Allocate();
    if (pkt.ok()) {
      // Receive directly into packet memory (no staging vector).
      rx_pkt_ = std::move(pkt).value();
      (void)rx_pkt_->WritablePayload(len);  // len checked above
    } else {
      // Receive buffer exhaustion: drain the frame and drop it, as a NIC
      // with no receive descriptors would. Logging backs off
      // exponentially — a saturating sender can drop thousands of frames
      // per second (the count lives on in DescribeStats).
      const std::uint64_t n =
          rx_drops_.fetch_add(1, std::memory_order_relaxed) + 1;
      if ((n & (n - 1)) == 0) {
        COOL_LOG(kWarn, "dacapo")
            << port.channel_name()
            << "/t_stream: arena full, frame dropped (" << n << " total)";
      }
    }
  }
  while (rx_body_got_ < rx_body_len_) {
    std::array<std::uint8_t, 4096> sink;
    const std::size_t want = rx_body_len_ - rx_body_got_;
    const std::span<std::uint8_t> dst =
        rx_pkt_ != nullptr ? rx_pkt_->Data().subspan(rx_body_got_)
                           : std::span(sink).first(std::min(want, sink.size()));
    auto got = socket_->TryRecv(dst);
    if (!got.ok()) return RxStep::kClosed;
    if (*got == 0) return RxStep::kIdle;
    rx_body_got_ += *got;
  }
  rx_prefix_got_ = 0;
  if (rx_pkt_ != nullptr) train.push_back(std::move(rx_pkt_));
  return RxStep::kFrame;
}

std::string TStreamModule::DescribeStats() const {
  const std::uint64_t n = rx_drops_.load(std::memory_order_relaxed);
  return n == 0 ? "" : "rx_drops=" + std::to_string(n);
}

// --- TDatagramModule --------------------------------------------------------

Status TDatagramModule::OnStart(ModulePort& port) {
  rx_cache_ = std::make_unique<PacketCache>(port.arena());
  return Status::Ok();
}

void TDatagramModule::OnStop(ModulePort& port) {
  (void)port;
  dgram_->Close();
}

void TDatagramModule::WatchReadiness(const sim::WaitSet& set,
                                     std::uint64_t token) {
  dgram_->WatchRecv(set, token);
}

void TDatagramModule::HandleData(Direction dir, PacketPtr pkt,
                                 ModulePort& port) {
  if (dir == Direction::kUp) return;
  if (Status s = dgram_->SendTo(peer_, pkt->Data()); !s.ok()) {
    COOL_LOG(kWarn, "dacapo") << port.channel_name()
                              << "/t_datagram send failed: " << s;
  }
}

bool TDatagramModule::PollReceive(ModulePort& port) {
  if (rx_closed_) return false;
  std::vector<PacketPtr> train;
  bool more = false;
  for (std::size_t frames = 0;; ++frames) {
    if (frames == kMaxFramesPerPoll) {
      more = true;
      break;
    }
    auto dgram = dgram_->TryRecv();
    if (!dgram.has_value()) {
      rx_closed_ = dgram_->depleted();
      break;
    }
    auto pkt = rx_cache_->Make(dgram->payload);
    if (!pkt.ok()) {
      const std::uint64_t n =
          rx_drops_.fetch_add(1, std::memory_order_relaxed) + 1;
      if ((n & (n - 1)) == 0) {
        COOL_LOG(kWarn, "dacapo")
            << port.channel_name() << "/t_datagram: arena full, drop (" << n
            << " total)";
      }
      continue;
    }
    train.push_back(std::move(pkt).value());
    if (train.size() >= PacketBatch::kCapacity) port.ForwardUpBatch(train);
  }
  if (!train.empty()) port.ForwardUpBatch(train);
  if (rx_closed_) NotifyPeerClosed(port);
  return more;
}

std::string TDatagramModule::DescribeStats() const {
  const std::uint64_t n = rx_drops_.load(std::memory_order_relaxed);
  return n == 0 ? "" : "rx_drops=" + std::to_string(n);
}

}  // namespace cool::dacapo
