// Layer-T modules: the bottom of every module graph, encapsulating the
// transport infrastructure (paper: "The T module used encapsulates TCP").
// Two mechanisms are provided:
//
//  * TStreamModule   — reliable byte stream (sim "TCP"); frames packets
//                      with a 4-octet length prefix.
//  * TDatagramModule — unreliable datagrams (raw network / Chorus-IPC-like
//                      service); one packet per datagram, may be lost or
//                      reordered, which is what the ARQ C-modules exist for.
//
// Neither owns a thread. Both drain their socket from the chain's reactor
// callback (PollReceive); the stream module also sends without blocking
// and reports !ReadyForDown while the peer's receive window is full.
#pragma once

#include <array>
#include <atomic>
#include <memory>

#include "dacapo/module.h"
#include "sim/network.h"

namespace cool::dacapo {

class TStreamModule : public Module {
 public:
  explicit TStreamModule(std::unique_ptr<sim::StreamSocket> socket)
      : socket_(std::move(socket)) {}

  std::string_view name() const override { return "t_stream"; }

  Status OnStart(ModulePort& port) override;
  void OnStop(ModulePort& port) override;
  void HandleData(Direction dir, PacketPtr pkt, ModulePort& port) override;
  // Burst: gathers every length prefix and body of the train into one
  // non-blocking vectored send — one socket call per burst instead of two
  // per packet. A full window leaves the whole train unconsumed.
  void ProcessBurst(Direction dir, PacketBatch& batch,
                    ModulePort& port) override;
  bool ReadyForDown() const override {
    return !write_blocked_ || socket_->Writable();
  }
  void WatchReadiness(const sim::WaitSet& set, std::uint64_t token) override;
  bool PollReceive(ModulePort& port) override;
  std::string DescribeStats() const override;

 private:
  enum class RxStep { kFrame, kIdle, kClosed };
  // Advances the frame being received (length prefix, then body straight
  // into packet memory) as far as the socket allows; a completed frame is
  // appended to `train`.
  RxStep ReadFrame(ModulePort& port, std::vector<PacketPtr>& train);

  std::unique_ptr<sim::StreamSocket> socket_;
  std::unique_ptr<PacketCache> rx_cache_;
  bool write_blocked_ = false;  // the last send found the window full
  bool rx_closed_ = false;
  // Partial-frame state carried between callbacks.
  std::array<std::uint8_t, 4> rx_prefix_{};
  std::size_t rx_prefix_got_ = 0;
  PacketPtr rx_pkt_;  // null while discarding a frame
  std::size_t rx_body_len_ = 0;
  std::size_t rx_body_got_ = 0;
  std::atomic<std::uint64_t> rx_drops_{0};
};

class TDatagramModule : public Module {
 public:
  TDatagramModule(std::unique_ptr<sim::DatagramPort> port, sim::Address peer)
      : dgram_(std::move(port)), peer_(std::move(peer)) {}

  std::string_view name() const override { return "t_datagram"; }

  Status OnStart(ModulePort& port) override;
  void OnStop(ModulePort& port) override;
  void HandleData(Direction dir, PacketPtr pkt, ModulePort& port) override;
  void WatchReadiness(const sim::WaitSet& set, std::uint64_t token) override;
  bool PollReceive(ModulePort& port) override;
  std::string DescribeStats() const override;

 private:
  std::unique_ptr<sim::DatagramPort> dgram_;
  sim::Address peer_;
  std::unique_ptr<PacketCache> rx_cache_;
  bool rx_closed_ = false;
  std::atomic<std::uint64_t> rx_drops_{0};
};

}  // namespace cool::dacapo
