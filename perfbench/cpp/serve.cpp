// serve_flood: wearables syncing their backlogs to an in-process
// net::Server over a Unix socket, as fast as flow control admits. The
// reactor runs on one thread of the benchmark, a sender (the calling
// thread) writes the devices' frames and a receiver thread reads their
// events: three threads and four connections, within nproc on a four-core
// machine.
//
// Each of the four sessions cyclically replays its own seeded 256-second
// stream (four users' 64-second traces back to back) in full-size SAMPLES
// frames. 25600 samples is a whole number of frames, so one cycle of frames
// is encoded at setup and the sender reuses its bytes.
//
// Event checks: after the run, a local StreamingTracker per session (the
// oracle) is fed the decoded bytes of exactly the frames that were sent,
// polling after each frame and draining at the end, like the server's
// session does. The session's events must equal the oracle's bit for bit,
// and the k-th event received maps to the frame after which the oracle
// emitted its k-th event. The time that frame's first byte was written
// starts the event's latency, so latency covers queueing and processing in
// the server but not PTrack's algorithmic hold-back.

#include <poll.h>
#include <pthread.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <stdexcept>
#include <thread>

#include "analysis.hpp"
#include "common/stats.hpp"
#include "core/streaming.hpp"
#include "imu/quality.hpp"
#include "net/server.hpp"
#include "net/session.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"
#include "obs/metrics.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace net = ptrack::net;
using ptrack::core::StepEvent;

namespace {

constexpr std::size_t kSessions = 4;
constexpr double kFs = 100.0;
constexpr double kCycleSeconds = 256.0;
/// Each session's cycle joins 64-second traces of four users, so a run's
/// accuracy averages over sixteen users, not four.
constexpr std::size_t kUsersPerSession = 4;
constexpr std::size_t kFrame = net::kMaxSamplesPerFrame;
/// A setup takes about 0.15 s, so many repetitions are cheap and steady
/// the median.
constexpr int kSetupReps = 15;
/// The per-layer passes of a traced run skip the first kLayerWarmSamples of
/// each session's stream (tracker warm-up) and time at most the next
/// kLayerSamples.
constexpr std::size_t kLayerWarmSamples = std::size_t{1} << 16;
constexpr std::size_t kLayerSamples = std::size_t{1} << 18;
/// Latency percentiles are taken per window of send time and the lower
/// quartile of the window values reported (see windowed_percentile): on a
/// shared machine, host stalls of tens of milliseconds hit many windows of
/// a run but rarely all. A window must hold at least kMinEvents events, so that its p99
/// has ten events beyond it.
constexpr std::uint64_t kLatencyWindowNs = 200'000'000;
constexpr std::size_t kMinEvents = 1000;

struct Device {
  Input input;
  std::vector<std::uint8_t> cycle;  ///< one replay cycle of SAMPLES frames
  std::size_t frame_bytes = 0;
  std::size_t frames_per_cycle = 0;

  [[nodiscard]] std::span<const std::uint8_t> frame(std::size_t f) const {
    return {cycle.data() + (f % frames_per_cycle) * frame_bytes, frame_bytes};
  }
};

std::vector<Device> make_devices(std::uint64_t seed) {
  std::vector<Input> parts =
      synthesize_inputs(seed, kSessions * kUsersPerSession,
                        kCycleSeconds / static_cast<double>(kUsersPerSession),
                        Mix::kDevice);
  std::vector<Device> out(kSessions);
  for (std::size_t s = 0; s < kSessions; ++s) {
    Device& d = out[s];
    d.input = std::move(parts[s * kUsersPerSession]);
    for (std::size_t k = 1; k < kUsersPerSession; ++k) {
      const Input& p = parts[s * kUsersPerSession + k];
      const double offset = d.input.trace.duration();
      d.input.trace.append(p.trace);
      for (const auto& [t, stride] : p.steps) {
        d.input.steps.emplace_back(t + offset, stride);
      }
      d.input.true_steps += p.true_steps;
      d.input.true_distance += p.true_distance;
    }
    const auto& samples = d.input.trace.samples();
    d.frames_per_cycle = samples.size() / kFrame;
    for (std::size_t f = 0; f < d.frames_per_cycle; ++f) {
      net::append_samples(d.cycle, std::span<const ptrack::imu::Sample>(
                                       samples.data() + f * kFrame, kFrame));
    }
    d.frame_bytes = d.cycle.size() / d.frames_per_cycle;
  }
  return out;
}

struct RxEvent {
  StepEvent ev;
  std::uint64_t t_ns = 0;
};

/// What one live run against the server produced.
struct Live {
  std::vector<std::uint64_t> frames = std::vector<std::uint64_t>(kSessions);
  /// Per session and frame: when its first byte was written.
  std::vector<std::vector<std::uint64_t>> sent_ns =
      std::vector<std::vector<std::uint64_t>>(kSessions);
  std::vector<std::vector<RxEvent>> rx =
      std::vector<std::vector<RxEvent>>(kSessions);
  std::vector<net::Drained> drained = std::vector<net::Drained>(kSessions);
  std::vector<std::string> session_error =
      std::vector<std::string>(kSessions);
  std::uint64_t write_stalls = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  double reactor_cpu_s = 0.0;
  net::ServerStats stats;
};

/// Writes all of `bytes`, waiting for the socket when it is full. Returns
/// false when the peer is gone or `deadline_ns` passes.
bool write_all(const net::Socket& sock, std::span<const std::uint8_t> bytes,
               std::uint64_t& stalls, std::uint64_t deadline_ns) {
  while (!bytes.empty()) {
    std::size_t w = 0;
    try {
      w = sock.write_some(bytes);
    } catch (const std::exception&) {
      return false;
    }
    if (w == 0) {
      ++stalls;
      if (now_ns() > deadline_ns) return false;
      pollfd p{sock.fd(), POLLOUT, 0};
      ::poll(&p, 1, 1);
    }
    bytes = bytes.subspan(w);
  }
  return true;
}

void receive(const std::vector<net::Socket>& socks, Live& live,
             std::atomic<std::size_t>& acked, std::uint64_t deadline_ns) {
  std::vector<net::FrameDecoder> dec(kSessions);
  std::vector<bool> done(kSessions, false);
  std::size_t n_done = 0;
  std::vector<std::uint8_t> buf(16 * 1024);
  std::vector<StepEvent> evs;
  const auto finish = [&](std::size_t s, const std::string& why) {
    if (done[s]) return;
    done[s] = true;
    ++n_done;
    if (!why.empty() && live.session_error[s].empty()) {
      live.session_error[s] = why;
    }
  };
  while (n_done < kSessions) {
    if (now_ns() > deadline_ns) {
      for (std::size_t s = 0; s < kSessions; ++s) {
        finish(s, "no DRAINED before the deadline");
      }
      break;
    }
    // The receiver spins rather than sleeping in poll(2), so an event's
    // receipt time does not include this thread's own wake-up.
    for (std::size_t s = 0; s < kSessions; ++s) {
      while (!done[s]) {
        std::ptrdiff_t n = 0;
        try {
          n = socks[s].read_some(buf);
        } catch (const std::exception& e) {
          finish(s, e.what());
          break;
        }
        if (n < 0) break;
        if (n == 0) {
          finish(s, "server closed the session before DRAINED");
          break;
        }
        const std::uint64_t t = now_ns();
        dec[s].feed({buf.data(), static_cast<std::size_t>(n)});
        net::Frame fr;
        net::DecodeStatus st;
        while ((st = dec[s].next(fr)) == net::DecodeStatus::kFrame) {
          switch (fr.type) {
            case net::FrameType::kHelloAck:
              acked.fetch_add(1);
              break;
            case net::FrameType::kEvent:
              evs.clear();
              if (!net::parse_events(fr.payload, evs)) {
                finish(s, "malformed EVENT frame");
              }
              for (const StepEvent& e : evs) live.rx[s].push_back({e, t});
              break;
            case net::FrameType::kDrained:
              if (!net::parse_drained(fr.payload, live.drained[s])) {
                finish(s, "malformed DRAINED frame");
              }
              live.end_ns = std::max(live.end_ns, t);
              finish(s, "");
              break;
            case net::FrameType::kError: {
              net::WireError we;
              finish(s, net::parse_error(fr.payload, we)
                            ? std::string("ERROR frame: ") + we.detail
                            : "ERROR frame");
              break;
            }
            default:
              finish(s, "unexpected frame type");
          }
          if (done[s]) break;
        }
        if (st == net::DecodeStatus::kError) finish(s, "undecodable reply");
      }
    }
  }
}

/// Streams every device to a fresh server for `seconds`, as fast as flow
/// control admits.
Live run_live(const std::vector<Device>& devs, double seconds,
              const std::string& sock_path) {
  Live live;
  net::Server server;
  const net::Endpoint ep = net::Endpoint::uds(sock_path);
  server.listen(ep);
  std::string reactor_error;
  std::thread reactor([&] {
    try {
      server.run();
    } catch (const std::exception& e) {
      reactor_error = e.what();
    }
  });
  // Stops and joins the reactor on every way out of this function.
  struct ReactorGuard {
    net::Server& server;
    std::thread& thread;
    ~ReactorGuard() {
      if (thread.joinable()) {
        server.request_stop();
        thread.join();
      }
    }
  } reactor_guard{server, reactor};
  // The reactor, the receiver and the sender (this thread) each get a CPU
  // of their own: the receiver spins and the sender writes without pause,
  // and a busy thread that shares a CPU with another delays it by whole
  // scheduler slices.
  cpu_set_t own_mask;
  pthread_getaffinity_np(pthread_self(), sizeof own_mask, &own_mask);
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &own_mask)) cpus.push_back(c);
  }
  const bool pin = cpus.size() >= 3;
  const auto pin_to = [](pthread_t th, int cpu) {
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    pthread_setaffinity_np(th, sizeof set, &set);
  };
  if (pin) pin_to(reactor.native_handle(), cpus[cpus.size() - 3]);
  clockid_t reactor_clock{};
  pthread_getcpuclockid(reactor.native_handle(), &reactor_clock);
  const std::uint64_t start_by = now_ns() + 5'000'000'000ULL;
  while (!server.running() && now_ns() < start_by) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }

  std::vector<net::Socket> socks;
  for (std::size_t s = 0; s < kSessions; ++s) {
    socks.push_back(net::connect_to(ep));
    socks.back().set_nonblocking(true);
  }
  const std::uint64_t deadline =
      now_ns() + static_cast<std::uint64_t>((seconds + 30.0) * 1e9);
  // Per-frame and per-event records are reserved before sending starts (the
  // sender's also touched): a vector that grows mid-run stalls its thread
  // on reallocation and page faults, and a stalled sender shows up as
  // latency. Bounds: at most 1000 frames a second per session, at most 2.5
  // steps per second of device time.
  const auto n_frames = static_cast<std::size_t>(seconds * 1000.0);
  const auto touch = [](auto& v, std::size_t n) {
    v.resize(n);
    v.clear();
  };
  for (std::size_t s = 0; s < kSessions; ++s) {
    touch(live.sent_ns[s], n_frames);
    live.rx[s].reserve(n_frames * kFrame / 40);
  }
  std::atomic<std::size_t> acked{0};
  std::thread receiver([&] { receive(socks, live, acked, deadline); });
  if (pin) {
    pin_to(receiver.native_handle(), cpus[cpus.size() - 2]);
    pin_to(pthread_self(), cpus.back());
  }

  bool sent_ok = true;
  for (std::size_t s = 0; s < kSessions; ++s) {
    std::vector<std::uint8_t> hello;
    net::append_hello(hello, net::Hello{s + 1, kFs, 0});
    sent_ok = sent_ok && write_all(socks[s], hello, live.write_stalls, deadline);
  }
  while (sent_ok && acked.load() < kSessions && now_ns() < deadline) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  const double cpu0 = thread_cpu_s(reactor_clock);

  live.start_ns = now_ns();
  const std::uint64_t stop =
      live.start_ns + static_cast<std::uint64_t>(seconds * 1e9);
  std::vector<std::size_t> off(kSessions, 0);
  while (sent_ok) {
    const std::uint64_t t = now_ns();
    const bool more = t < stop;
    bool progress = false;
    bool pending = false;
    for (std::size_t s = 0; s < kSessions && sent_ok; ++s) {
      if (off[s] == 0 && !more) continue;
      pending = true;
      const auto bytes = devs[s].frame(live.frames[s]).subspan(off[s]);
      std::size_t w = 0;
      try {
        w = socks[s].write_some(bytes);
      } catch (const std::exception&) {
        sent_ok = false;
        break;
      }
      if (w == 0) {
        ++live.write_stalls;
        continue;
      }
      progress = true;
      if (off[s] == 0) live.sent_ns[s].push_back(t);
      off[s] += w;
      if (off[s] == devs[s].frame_bytes) {
        off[s] = 0;
        ++live.frames[s];
      }
    }
    if (!pending || now_ns() > deadline) break;
    if (!progress) {
      std::vector<pollfd> pfd;
      for (std::size_t s = 0; s < kSessions; ++s) {
        if (off[s] != 0 || more) pfd.push_back({socks[s].fd(), POLLOUT, 0});
      }
      ::poll(pfd.data(), pfd.size(), 10);
    }
  }
  for (std::size_t s = 0; s < kSessions && sent_ok; ++s) {
    std::vector<std::uint8_t> bye;
    net::append_bye(bye);
    sent_ok = write_all(socks[s], bye, live.write_stalls, deadline);
  }
  receiver.join();
  pthread_setaffinity_np(pthread_self(), sizeof own_mask, &own_mask);
  live.reactor_cpu_s = thread_cpu_s(reactor_clock) - cpu0;
  live.stats = server.stats();
  socks.clear();
  server.request_stop();
  reactor.join();
  net::unlink_uds(ep);
  for (std::string& e : live.session_error) {
    if (!reactor_error.empty()) e = "reactor: " + reactor_error;
    if (!sent_ok && e.empty()) e = "sending failed";
  }
  return live;
}

/// The oracle's view of one session's stream.
struct Oracle {
  std::vector<std::uint32_t> per_frame;  ///< events polled after each frame
  std::vector<StepEvent> events;         ///< polled, then drained
  std::size_t polled = 0;
};

Oracle run_oracle(const Device& d, std::size_t frames) {
  Oracle o;
  ptrack::core::StreamingTracker tracker(kFs, ptrack::core::StreamingConfig{});
  net::FrameDecoder dec;
  o.per_frame.reserve(frames);
  for (std::size_t f = 0; f < frames; ++f) {
    dec.feed(d.frame(f));
    net::Frame fr;
    net::SampleBlockView block;
    if (dec.next(fr) != net::DecodeStatus::kFrame ||
        !net::parse_samples(fr.payload, block)) {
      throw std::runtime_error("the oracle could not decode a sent frame");
    }
    for (std::uint32_t i = 0; i < block.count; ++i) {
      tracker.push(net::sample_at(block, i));
    }
    const std::size_t before = o.events.size();
    tracker.poll_into(o.events);
    o.per_frame.push_back(static_cast<std::uint32_t>(o.events.size() - before));
  }
  o.polled = o.events.size();
  tracker.drain_into(o.events);
  return o;
}

/// Oracle events as they look after the wire's encoding.
std::vector<StepEvent> over_the_wire(std::span<const StepEvent> events) {
  std::vector<StepEvent> out;
  for (std::size_t i = 0; i < events.size(); i += 512) {
    std::vector<std::uint8_t> bytes;
    net::append_events(bytes, events.subspan(i, std::min<std::size_t>(512, events.size() - i)));
    net::FrameDecoder dec;
    dec.feed(bytes);
    net::Frame fr;
    std::vector<StepEvent> part;
    if (dec.next(fr) == net::DecodeStatus::kFrame) {
      static_cast<void>(net::parse_events(fr.payload, part));
    }
    out.insert(out.end(), part.begin(), part.end());
  }
  return out;
}

bool same_event(const StepEvent& a, const StepEvent& b) {
  return same_bits(a.t, b.t) && same_bits(a.stride, b.stride) &&
         a.type == b.type && same_bits(a.quality, b.quality) &&
         a.degraded == b.degraded;
}

/// What checking a live run against its oracles yields.
struct Checked {
  std::vector<std::pair<std::uint64_t, double>> latency;  ///< (sent, us)
  std::vector<double> latency_us;  ///< per event, in the order sent
  std::uint64_t samples = 0;
  double step_err = 0.0;  ///< mean over sessions of |events - true| / true
  double dist_err = 0.0;
  std::vector<Oracle> oracles;
};

double latency_pct(const Checked& c, double p) {
  return windowed_percentile(c.latency, kLatencyWindowNs, p, kMinEvents);
}

Checked check(const std::vector<Device>& devs, const Live& live,
              Result& res) {
  Checked c;
  c.oracles.resize(kSessions);
  std::vector<std::string> oracle_error(kSessions);
  {
    std::vector<std::thread> pool;
    for (std::size_t s = 0; s < kSessions; ++s) {
      pool.emplace_back([&, s] {
        try {
          c.oracles[s] = run_oracle(devs[s], live.frames[s]);
        } catch (const std::exception& e) {
          oracle_error[s] = e.what();
        }
      });
    }
    for (std::thread& t : pool) t.join();
  }
  const std::size_t cycle = devs[0].input.trace.size();
  for (std::size_t s = 0; s < kSessions; ++s) {
    ++res.attempted;
    const Oracle& o = c.oracles[s];
    const std::uint64_t samples = live.frames[s] * kFrame;
    c.samples += samples;
    std::string why = live.session_error[s].empty() ? oracle_error[s]
                                                     : live.session_error[s];
    if (why.empty() && (live.drained[s].events_total != o.events.size() ||
                        live.drained[s].samples_total != samples)) {
      why = "DRAINED totals differ from the oracle";
    }
    if (why.empty() && live.rx[s].size() != o.events.size()) {
      why = "received " + std::to_string(live.rx[s].size()) + " events, oracle " +
            std::to_string(o.events.size());
    }
    if (why.empty()) {
      const std::vector<StepEvent> want = over_the_wire(o.events);
      for (std::size_t k = 0; k < want.size() && why.empty(); ++k) {
        if (!same_event(live.rx[s][k].ev, want[k])) {
          why = "event " + std::to_string(k) + " differs from the oracle";
        }
      }
    }
    if (!why.empty()) {
      ++res.failed;
      res.fail("serve_flood: session " + std::to_string(s + 1) + ": " + why);
      continue;
    }
    const std::vector<std::uint32_t> frame_of = events_to_frames(o.per_frame);
    for (std::size_t k = 0; k < o.polled; ++k) {
      const std::uint64_t sent = live.sent_ns[s][frame_of[k]];
      c.latency.emplace_back(
          sent, static_cast<double>(live.rx[s][k].t_ns - sent) * 1e-3);
    }
    // Ground truth of the replayed stream: whole cycles plus the steps of
    // the partial cycle.
    const Input& in = devs[s].input;
    const double cycles = static_cast<double>(samples / cycle);
    const double tail_t = static_cast<double>(samples % cycle) / kFs;
    double steps = cycles * static_cast<double>(in.true_steps);
    double dist = cycles * in.true_distance;
    for (const auto& [t, stride] : in.steps) {
      if (t < tail_t) {
        steps += 1.0;
        dist += stride;
      }
    }
    double got = 0.0;
    for (const StepEvent& e : o.events) got += e.stride;
    c.step_err += std::abs(static_cast<double>(o.events.size()) - steps) / steps;
    c.dist_err += std::abs(got - dist) / dist;
  }
  c.step_err /= static_cast<double>(kSessions);
  c.dist_err /= static_cast<double>(kSessions);
  std::sort(c.latency.begin(), c.latency.end());
  for (const auto& l : c.latency) c.latency_us.push_back(l.second);
  if (res.failed == 0 && latency_pct(c, 50.0) == 0.0) {
    res.fail("serve_flood: no 200-ms window returned " +
             std::to_string(kMinEvents) + " events; its p99 would rest on too few");
  }
  return c;
}

/// A rejected frame or an evicted session fails the run even when every
/// session still drained.
void check_server(const Live& live, Result& res) {
  const net::ServerStats& st = live.stats;
  if (st.frames_rejected > 0 ||
      st.evicted_idle + st.evicted_stall + st.evicted_slow > 0) {
    res.fail("serve_flood: the server rejected frames or evicted a session");
  }
}


/// Decodes one sent SAMPLES frame into `out` (block.count samples).
bool decode_frame(net::FrameDecoder& dec, std::span<const std::uint8_t> bytes,
                  std::vector<ptrack::imu::Sample>& out) {
  dec.feed(bytes);
  net::Frame fr;
  net::SampleBlockView block;
  if (dec.next(fr) != net::DecodeStatus::kFrame ||
      !net::parse_samples(fr.payload, block) || block.count != out.size()) {
    return false;
  }
  for (std::uint32_t i = 0; i < block.count; ++i) out[i] = net::sample_at(block, i);
  return true;
}

/// Per-layer passes over a steady-state stretch of each session's sent
/// frames (after kLayerWarmSamples of warm-up, which runs untimed). Four
/// consumers take the frames chunk by chunk in turn: a whole net::Session;
/// the same work split into its layers (wire decode, tracker push, poll,
/// event encode) under one frame span; a tracker timed push by push, hop
/// and non-hop pushes apart (one clock read per push, kept out of the
/// frame spans); and the incremental quality stage alone.
void layer_passes(const std::vector<Device>& devs, const Live& live,
                  const Checked& checked, SpanRecorder& rec, Result& res) {
  const std::uint32_t n_frame = rec.name_id("serve.frame");
  const std::uint32_t n_dec = rec.name_id("net.wire.decode");
  const std::uint32_t n_push = rec.name_id("core.streaming.push");
  const std::uint32_t n_hop = rec.name_id("core.streaming.hop");
  const std::uint32_t n_poll = rec.name_id("core.streaming.poll");
  const std::uint32_t n_enc = rec.name_id("net.wire.encode");
  const std::uint32_t n_iq = rec.name_id("imu.incremental_quality");
  const std::uint32_t n_sess = rec.name_id("net.session.on_bytes");
  const std::size_t first_span = rec.spans().size();

  double push_ns = 0.0;
  std::uint64_t pushes = 0;
  std::vector<double> hop_us;
  std::uint64_t frames_total = 0;
  std::uint64_t events_encoded = 0;
  std::uint64_t samples_total = 0;
  std::vector<ptrack::imu::Sample> samples(kFrame);
  std::vector<StepEvent> events;
  std::vector<std::uint8_t> out;
  std::vector<ptrack::imu::RepairedSample> repaired;
  const std::size_t warm = kLayerWarmSamples / kFrame;
  for (std::size_t s = 0; s < kSessions; ++s) {
    const std::size_t end =
        std::min<std::size_t>(live.frames[s], warm + kLayerSamples / kFrame);
    if (end <= warm) {
      res.fail("layer pass: the run sent too few frames to time");
      return;
    }
    frames_total += end - warm;
    samples_total += (end - warm) * kFrame;
    net::Session session{net::SessionConfig{}};
    std::vector<std::uint8_t> hello;
    net::append_hello(hello, net::Hello{s + 1, kFs, 0});
    if (session.on_bytes(hello) != net::Session::IoResult::kOk) {
      res.fail("layer pass: session refused HELLO");
      return;
    }
    session.consume_out(session.out_pending());
    ptrack::core::StreamingTracker split(kFs, ptrack::core::StreamingConfig{});
    ptrack::core::StreamingTracker timed(kFs, ptrack::core::StreamingConfig{});
    ptrack::imu::IncrementalQuality quality(kFs);
    net::FrameDecoder dec;
    net::FrameDecoder dec_timed;
    net::FrameDecoder dec_quality;
    std::size_t split_events = 0;
    std::size_t timed_events = 0;
    bool ok = true;
    const auto req_of = [&](std::size_t f) { return (std::uint64_t{s} << 32) | f; };
    const auto run_session = [&](std::size_t f, SpanRecorder* r) {
      ScopedSpan sp(r, n_sess, req_of(f));
      ok = ok && session.on_bytes(devs[s].frame(f)) == net::Session::IoResult::kOk;
      session.consume_out(session.out_pending());
    };
    const auto run_split = [&](std::size_t f, SpanRecorder* r) {
      ScopedSpan fs(r, n_frame, req_of(f));
      {
        ScopedSpan sp(r, n_dec, req_of(f), fs.id());
        ok = ok && decode_frame(dec, devs[s].frame(f), samples);
      }
      {
        ScopedSpan sp(r, n_push, req_of(f), fs.id());
        for (const ptrack::imu::Sample& x : samples) split.push(x);
      }
      events.clear();
      {
        ScopedSpan sp(r, n_poll, req_of(f), fs.id());
        split.poll_into(events);
      }
      if (!events.empty()) {
        ScopedSpan sp(r, n_enc, req_of(f), fs.id());
        out.clear();
        net::append_events(out, events);
      }
      split_events += events.size();
      if (r != nullptr) events_encoded += events.size();
    };
    const auto run_timed = [&](std::size_t f, SpanRecorder* r) {
      ok = ok && decode_frame(dec_timed, devs[s].frame(f), samples);
      std::uint64_t t0 = now_ns();
      for (const ptrack::imu::Sample& x : samples) {
        const std::size_t hops = timed.stats().windows_processed;
        timed.push(x);
        const std::uint64_t t1 = now_ns();
        if (r != nullptr && timed.stats().windows_processed != hops) {
          rec.add(n_hop, req_of(f), -1, t0, t1);
          hop_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
        } else if (r != nullptr) {
          push_ns += static_cast<double>(t1 - t0);
          ++pushes;
        }
        t0 = t1;
      }
      events.clear();
      timed.poll_into(events);
      timed_events += events.size();
    };
    const auto run_quality = [&](std::size_t f, SpanRecorder* r) {
      ok = ok && decode_frame(dec_quality, devs[s].frame(f), samples);
      ScopedSpan sp(r, n_iq, req_of(f));
      for (const ptrack::imu::Sample& x : samples) {
        repaired.clear();
        quality.push(x, repaired);
      }
    };
    // Chunks of about 16k samples: long enough that each consumer runs
    // with its own state in cache, short enough that all four see the same
    // host conditions.
    const std::function<void(std::size_t, SpanRecorder*)> consumers[] = {
        run_session, run_split, run_timed, run_quality};
    const std::size_t chunk = std::max<std::size_t>(1, 16384 / kFrame);
    for (std::size_t c0 = 0; c0 < end && ok; c0 += chunk) {
      const std::size_t c1 = std::min(end, c0 + chunk);
      for (const auto& consume : consumers) {
        for (std::size_t f = c0; f < c1; ++f) consume(f, f >= warm ? &rec : nullptr);
      }
    }
    if (!ok) {
      res.fail("layer pass: a sent frame was refused or did not decode");
      return;
    }
    std::size_t want = 0;
    for (std::size_t f = 0; f < end; ++f) want += checked.oracles[s].per_frame[f];
    if (split_events != want || timed_events != want ||
        session.counters().events != want) {
      res.fail("layer pass: a consumer disagreed with the oracle");
    }
  }

  std::vector<double> total;
  for (const NameTotals& t : totals_by_name(rec, first_span)) {
    total.push_back(t.total_ns);
  }
  const auto per_frame_us = [&](std::uint32_t n) {
    return total[n] * 1e-3 / static_cast<double>(frames_total);
  };
  res.set("imu.incremental_quality.ns_per_sample",
          total[n_iq] / static_cast<double>(samples_total), "ns");
  res.set("core.streaming.push_ns_per_sample",
          pushes > 0 ? push_ns / static_cast<double>(pushes) : 0.0, "ns");
  res.set("core.streaming.hop_us_p50", percentile_or_zero(hop_us, 50.0), "us");
  res.set("core.streaming.hop_us_p99", percentile_or_zero(hop_us, 99.0), "us");
  res.set("net.wire.decode_ns_per_frame", per_frame_us(n_dec) * 1e3, "ns");
  res.set("net.wire.encode_ns_per_event",
          events_encoded > 0 ? total[n_enc] / static_cast<double>(events_encoded)
                             : 0.0,
          "ns");
  const double session_us = per_frame_us(n_sess);
  res.set("net.session.us_per_frame", session_us, "us");
  res.set("net.session.self_us_per_frame",
          session_us - per_frame_us(n_dec) - per_frame_us(n_push) -
              per_frame_us(n_poll) - per_frame_us(n_enc),
          "us");
  const double frames_ok = static_cast<double>(live.stats.frames_ok);
  const double cpu_us = frames_ok > 0 ? live.reactor_cpu_s * 1e6 / frames_ok : 0.0;
  res.set("net.server.cpu_us_per_frame", cpu_us, "us");
  res.set("net.server.residual_us_per_frame", cpu_us - session_us, "us");
}

}  // namespace

Result run_serve(const Options& opt) {
  Result res;
  std::vector<Device> devs;
  const SetupTime setup = timed_setup(kSetupReps, [&] {
    devs = make_devices(opt.seed);
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const Device& d : devs) h = fnv1a(d.cycle, h);
    return h;
  }, /*normalize=*/false, res);
  // A Unix socket path must fit sun_path (108 bytes), so the socket is
  // named relative to the working directory, the checkout root.
  std::filesystem::create_directories(opt.work_dir);
  const std::string sock =
      (std::filesystem::relative(opt.work_dir) /
       ("serve-" + std::to_string(::getpid()) + ".sock")).string();

  ptrack::obs::set_enabled(false);
  const double live_s = opt.trace ? opt.seconds / 2.0 : opt.seconds;
  const Live live = run_live(devs, live_s, sock);
  const Checked c = check(devs, live, res);
  check_server(live, res);
  const double wall_s = static_cast<double>(live.end_ns - live.start_ns) * 1e-9;
  const double samples_per_s = static_cast<double>(c.samples) / wall_s;

  if (!opt.trace) {
    res.set("setup_s", setup.measured_s, "s");
    res.set("samples_per_s", samples_per_s, "samples/s");
    res.set("event_latency_p50_us", latency_pct(c, 50.0), "us");
    res.set("event_latency_p99_us", latency_pct(c, 99.0), "us");
    res.set("step_accuracy", 1.0 - c.step_err, "ratio");
    res.set("distance_accuracy", 1.0 - c.dist_err, "ratio");
  } else {
    ptrack::obs::set_enabled(true);
    const Live tlive = run_live(devs, live_s, sock);
    const Checked tc = check(devs, tlive, res);
    check_server(tlive, res);
    const double twall_s = static_cast<double>(tlive.end_ns - tlive.start_ns) * 1e-9;
    res.set("obs.overhead_frac",
            samples_per_s / (static_cast<double>(tc.samples) / twall_s) - 1.0,
            "ratio");
    res.set("net.server.reactor_busy", tlive.reactor_cpu_s / twall_s, "ratio");
    res.set("net.server.frames_rejected",
            static_cast<double>(tlive.stats.frames_rejected), "count");
    res.set("net.server.evictions",
            static_cast<double>(tlive.stats.evicted_idle + tlive.stats.evicted_stall +
                                tlive.stats.evicted_slow),
            "count");
    res.set("net.client.write_stalls", static_cast<double>(tlive.write_stalls), "count");
    res.set("serve.latency_drift", latency_drift(tc.latency_us), "ratio");
    SpanRecorder rec;
    layer_passes(devs, tlive, tc, rec, res);
    ptrack::obs::set_enabled(false);
    rec.write_csv(opt.work_dir + "/spans-serve_flood-seed" +
                  std::to_string(opt.seed) + ".csv");
  }
  res.set("step_error", c.step_err, "ratio");
  res.set("distance_error", c.dist_err, "ratio");
  res.set("latency_drift", latency_drift(c.latency_us), "ratio");
  res.set("event_latency_p99_whole_run_us", percentile_or_zero(c.latency_us, 99.0),
          "us");
  return res;
}

}  // namespace perfbench
