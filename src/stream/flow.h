// Continuous-media flows — the paper's "next step": "to extend COOL ORB
// with QoS support for multimedia streams. Support for stream interactions
// need an extended IDL to specify stream interfaces with QoS specification
// for different flows."
//
// This module implements the runtime half of that plan: a *flow* is a
// one-directional continuous-media channel with its own QoS, carried by a
// Da CaPo session configured for that QoS, while control (flow setup,
// negotiation, statistics) travels through ordinary ORB invocations — the
// OMG A/V-Streams-style split the paper cites ("the data flow takes place
// over separate channels outside the ORB core").
//
//  * StreamSource — paced frame generator (sender side).
//  * StreamSink   — receiver measuring rate, throughput, loss and delay
//                   jitter (the MULTE QoS dimensions: low latency, high
//                   throughput, controlled delay jitter).
//
// Neither owns a thread: each is one registration on
// sim::Reactor::Default(), the reactor that also runs the session's
// module chain and signalling plane.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

#include "cdr/decoder.h"
#include "cdr/encoder.h"
#include "common/mutex.h"
#include "common/status.h"
#include "dacapo/session.h"
#include "qos/qos.h"

namespace cool::stream {

// Per-flow service contract: frame clock + frame size + QoS for the
// carrying protocol.
struct FlowSpec {
  double frame_rate_hz = 25.0;
  std::size_t frame_bytes = 8 * 1024;
  qos::QoSSpec qos;

  Duration FramePeriod() const {
    return std::chrono::duration_cast<Duration>(
        std::chrono::duration<double>(1.0 / frame_rate_hz));
  }
  // Nominal media bit rate, used for admission.
  corba::ULong NominalKbps() const {
    return static_cast<corba::ULong>(frame_rate_hz *
                                     static_cast<double>(frame_bytes) * 8.0 /
                                     1000.0);
  }

  // CDR form (rides inside the ORB control operations).
  void Encode(cdr::Encoder& enc) const;
  static Result<FlowSpec> Decode(cdr::Decoder& dec);

  friend bool operator==(const FlowSpec&, const FlowSpec&) = default;
};

// Receiver-side measurements of a live flow.
struct FlowStats {
  std::uint64_t frames_received = 0;
  std::uint64_t frames_lost = 0;      // sequence gaps
  std::uint64_t frames_reordered = 0; // sequence going backwards
  double measured_fps = 0;
  double throughput_kbps = 0;
  double mean_jitter_us = 0;   // mean |inter-arrival - nominal period|
  double p95_jitter_us = 0;

  void EncodeStats(cdr::Encoder& enc) const;
  static Result<FlowStats> DecodeStats(cdr::Decoder& dec);
};

// Frame wire format: [u32 seq][payload]. Sequence numbers count the
// frames handed to the session, so the sink counts the carrying
// protocol's loss/reorder, not the source's skips.
inline constexpr std::size_t kFrameHeaderBytes = 4;

// Paced sender: emits `spec.frame_rate_hz` frames per second of
// `spec.frame_bytes` each over the session. Skips (counts) frames the
// session cannot absorb in time instead of drifting the clock. Each frame
// is a tick of a timer registration (Reactor::ScheduleAt at the frame
// time) that hands the frame over with one Session::TrySendWith attempt:
// a tick never blocks its worker, and a frame the session refuses counts
// in frames_skipped.
class StreamSource {
 public:
  StreamSource(dacapo::Session* session, FlowSpec spec)
      : session_(session), spec_(std::move(spec)) {}
  ~StreamSource() { Stop(); }

  StreamSource(const StreamSource&) = delete;
  StreamSource& operator=(const StreamSource&) = delete;

  Status Start();
  // Barrier: no tick runs once Stop returns.
  void Stop();
  bool running() const noexcept { return running_; }

  std::uint64_t frames_sent() const { return frames_sent_.load(); }
  std::uint64_t frames_skipped() const { return frames_skipped_.load(); }

 private:
  // The timer callback: sends the frame that is due, then re-arms.
  void Tick();

  dacapo::Session* session_;
  FlowSpec spec_;
  std::atomic<bool> running_{false};
  std::uint64_t reg_ = 0;  // timer registration, while running
  // Tick state, touched by Start and then only by the (serial) ticks.
  std::vector<std::uint8_t> frame_;  // payload template
  TimePoint next_due_{};
  std::uint32_t seq_ = 0;
  std::atomic<std::uint64_t> frames_sent_{0};
  std::atomic<std::uint64_t> frames_skipped_{0};
};

// Receiving end: consumes frames from the session and keeps statistics.
// It drains TryReceivePacket from a registration on the session's
// WatchRx, colocated with the session's signalling plane.
class StreamSink {
 public:
  explicit StreamSink(dacapo::Session* session) : session_(session) {}
  // Takes ownership of the session (server-side flows created by the
  // stream adapter own theirs).
  explicit StreamSink(std::unique_ptr<dacapo::Session> session)
      : owned_session_(std::move(session)), session_(owned_session_.get()) {}
  ~StreamSink() { Stop(); }

  StreamSink(const StreamSink&) = delete;
  StreamSink& operator=(const StreamSink&) = delete;

  Status Start();
  // Barrier stop, then closes an owned session.
  void Stop();
  // Stop without waiting, for callers that must not block (dispatch
  // upcalls): the sink's own registration unregisters itself and closes
  // an owned session — on the session's worker, where neither waits —
  // and then calls `then`, which may destroy the sink.
  void StopAsync(std::function<void()> then);

  FlowStats stats() const;

 private:
  // The registration's callback: runs a StopAsync teardown, or records
  // every frame received.
  void Drain();

  std::unique_ptr<dacapo::Session> owned_session_;
  dacapo::Session* session_;
  std::atomic<bool> running_{false};
  std::uint64_t reg_ = 0;  // registration, while running

  mutable Mutex mu_{LockRank::kStream, "stream::StreamSink::mu_"};
  std::function<void()> stop_then_ COOL_GUARDED_BY(mu_);  // StopAsync's
  std::uint64_t frames_received_ COOL_GUARDED_BY(mu_) = 0;
  std::uint64_t frames_lost_ COOL_GUARDED_BY(mu_) = 0;
  std::uint64_t frames_reordered_ COOL_GUARDED_BY(mu_) = 0;
  std::uint64_t bytes_received_ COOL_GUARDED_BY(mu_) = 0;
  std::uint32_t next_seq_ COOL_GUARDED_BY(mu_) = 0;
  TimePoint first_rx_ COOL_GUARDED_BY(mu_){};
  TimePoint last_rx_ COOL_GUARDED_BY(mu_){};
  std::vector<double> interarrival_us_ COOL_GUARDED_BY(mu_);
};

}  // namespace cool::stream
