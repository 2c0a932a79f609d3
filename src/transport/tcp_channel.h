// TCP transport under the generic transport layer. `TcpBuffer` is the
// `_TcpBuffer` of the paper's Fig. 8 ("the TCP/IP implementation needs to
// handle buffer management"): it reassembles length-prefixed messages from
// the byte stream. Plain TCP offers no QoS — SetQoSParameter keeps the base
// class's refusal, exactly the paper's point.
#pragma once

#include <optional>
#include <vector>

#include "common/buffer_pool.h"
#include "common/mutex.h"
#include "sim/network.h"
#include "transport/com_channel.h"

namespace cool::transport {

class TcpBuffer {
 public:
  // Feeds raw stream octets into the reassembly buffer. The backing store
  // is leased lazily from the shared BufferPool on the first octet — an
  // idle connection holds no receive buffer at all (the per-connection
  // memory diet for 100k-connection servers).
  void Append(std::span<const std::uint8_t> bytes);

  // Extracts the next complete message (in a pooled buffer, so the
  // steady-state receive path allocates nothing), or nullopt if more
  // stream data is needed. Fails with kProtocolError on an implausible
  // length prefix.
  Result<std::optional<ByteBuffer>> NextMessage();

  // Returns the pooled backing store once every buffered octet has been
  // consumed. Called when the owning channel's drain loop goes idle — NOT
  // after every message, so an active burst keeps its lease warm.
  void ReleaseIfDrained();

  std::size_t buffered_bytes() const noexcept { return data_.size() - consumed_; }
  // True when no backing store is held (tests for the lazy-lease contract).
  bool idle() const noexcept { return data_.empty(); }

  static constexpr std::size_t kMaxMessage = 16 * 1024 * 1024;

 private:
  void Compact();

  // Pool-homed reassembly storage (rule 15: no unpooled per-connection
  // buffer members); empty <=> no heap held.
  ByteBuffer data_;
  std::size_t consumed_ = 0;
};

class TcpComChannel : public ComChannel {
 public:
  explicit TcpComChannel(std::unique_ptr<sim::StreamSocket> socket)
      : socket_(std::move(socket)) {}
  ~TcpComChannel() override;

  std::string_view protocol() const override { return "tcp"; }

  Status SendMessage(std::span<const std::uint8_t> message) override;
  // True gathered write: {length prefix, parts...} leave in one paced
  // stream write, so a preamble+args pair costs no concatenation.
  Status SendMessageV(
      std::span<const std::span<const std::uint8_t>> parts) override;
  Result<std::optional<ByteBuffer>> TryReceiveMessage() override;
  bool RegisterRx(const sim::WaitSet& set, std::uint64_t token) override;
  void Close() override;

 private:
  std::unique_ptr<sim::StreamSocket> socket_;
  Mutex tx_mu_ COOL_ACQUIRED_AFTER(call_mu_, async_mu_) {
      LockRank::kChannel, "transport::TcpComChannel::tx_mu_"};
  Mutex rx_mu_ COOL_ACQUIRED_AFTER(call_mu_, receive_mu_) {
      LockRank::kChannel, "transport::TcpComChannel::rx_mu_"};
  TcpBuffer rx_buffer_ COOL_GUARDED_BY(rx_mu_);
};

class TcpComManager : public ComManager {
 public:
  // Passive address; Listen() must be called before AcceptChannel.
  TcpComManager(sim::Network* net, sim::Address listen_addr)
      : net_(net), addr_(std::move(listen_addr)) {}

  std::string_view protocol() const override { return "tcp"; }

  Status Listen();

  Result<std::unique_ptr<ComChannel>> OpenChannel(
      const sim::Address& remote, const qos::QoSSpec& qos) override;
  Result<std::unique_ptr<ComChannel>> TryAcceptChannel() override;
  bool RegisterAccept(const sim::WaitSet& set, std::uint64_t token) override;
  void Close() override;

  const sim::Address& address() const noexcept { return addr_; }

 private:
  sim::Network* net_;
  sim::Address addr_;
  std::unique_ptr<sim::Listener> listener_;
};

}  // namespace cool::transport
