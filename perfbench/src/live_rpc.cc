// live_udp_pingpong / live_udp_stream: two LiveRuntime hosts over
// UdpFabric on the loopback interface, engines in dedicated mode, and two
// spin-polling app threads driven by this file on PonyClient's public API
// (not the program's RunLiveRpcClient/RunLiveEchoServer), so every call
// can be timed.
//
// The client thread (the main thread) keeps `outstanding` RPCs of
// `message_bytes` random bytes in flight on one stream; the server thread
// echoes each payload verbatim on a reply stream. Every echo is checked
// byte for byte against the payload sent for its sequence number, and
// replies must arrive in send order (one stream each way).
//
// A run first repeats set-up alone and reports its median, then measures
// kSessions fresh sessions in turn (warm-up dropped) and reports medians
// over sessions. A traced run (trace 1) alternates untraced sessions, which
// give the per-layer counters, with sessions that arm the program's
// lifecycle tracing, the socket probe and this file's call spans, which
// give the per-stage breakdown; the rate difference is the tracing
// overhead.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "src/live/live_runtime.h"
#include "src/udp_probe.h"
#include "src/workloads.h"

namespace perfbench {
namespace {

using snap::LiveRuntime;
using snap::PonyAddress;

constexpr int kHosts = 2;
constexpr int kClientHost = 0;
constexpr int kServerHost = 1;
constexpr int kSetupRepetitions = 31;
constexpr int kSessions = 12;
constexpr int64_t kWarmupNs = 200'000'000;  // per session, dropped
constexpr int64_t kRpcDeadlineNs = 1'000'000'000;  // a later echo failed
constexpr int64_t kDrainTimeoutNs = 2'000'000'000;
constexpr double kRpcsPerUnit = 1000;  // unit of work for sim_wall_s
// Round-trip samples a run can pool (~2 minutes at 60k RPC/s); reserved
// up front, paged in only as used.
constexpr size_t kMaxRttSamples = size_t{8} << 20;

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Random payloads drawn from the workload seed. RPC `seq` carries
// payload seq % kVariants with seq stamped over its first 8 bytes.
class Payloads {
 public:
  static constexpr uint64_t kVariants = 64;

  Payloads(uint64_t seed, int64_t bytes) {
    uint64_t state = seed;
    for (uint64_t v = 0; v < kVariants; ++v) {
      std::vector<uint8_t> p(static_cast<size_t>(bytes));
      for (uint8_t& b : p) {
        b = static_cast<uint8_t>(SplitMix64(&state));
      }
      variants_.push_back(std::move(p));
    }
  }

  std::vector<uint8_t> For(uint64_t seq) const {
    std::vector<uint8_t> p = variants_[seq % kVariants];
    std::memcpy(p.data(), &seq, sizeof(seq));
    return p;
  }

  static uint64_t SeqOf(const std::vector<uint8_t>& data) {
    uint64_t seq = 0;
    if (data.size() >= sizeof(seq)) {
      std::memcpy(&seq, data.data(), sizeof(seq));
    }
    return seq;
  }

  bool Matches(uint64_t seq, const std::vector<uint8_t>& data) const {
    const std::vector<uint8_t>& want = variants_[seq % kVariants];
    return data.size() == want.size() && SeqOf(data) == seq &&
           std::memcmp(data.data() + 8, want.data() + 8, want.size() - 8) ==
               0;
  }

 private:
  std::vector<std::vector<uint8_t>> variants_;
};

// One timed PonyClient call of a traced segment. Spans of one RPC share
// its sequence number as id; op_id joins them to the program's sampled
// lifecycle points.
enum class SpanKind : uint8_t {
  kClientSend,         // client SendMessage (payload copy included)
  kServerPollMessage,  // server PollMessage that returned the request
  kServerSend,         // server SendMessage of the echo
  kClientPollMessage,  // client PollMessage that returned the echo
};
const char* SpanName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kClientSend:
      return "pony.client.send";
    case SpanKind::kServerPollMessage:
      return "pony.server.poll_message";
    case SpanKind::kServerSend:
      return "pony.server.send";
    case SpanKind::kClientPollMessage:
      return "pony.client.poll_message";
  }
  return "?";
}
struct Span {
  uint64_t seq = 0;
  uint64_t op_id = 0;
  int64_t begin = 0;  // raw CLOCK_MONOTONIC ns
  int64_t end = 0;
  SpanKind kind = SpanKind::kClientSend;
};

// Per-thread call timing of a traced segment. Durations of every call
// feed the per-call percentiles; full spans are kept only for RPCs whose
// op id the program's trace samples, since only those can be joined.
struct CallTrace {
  bool on = false;
  std::vector<Span> spans;
  std::vector<double> send_ns;      // every SendMessage
  std::vector<double> poll_hit_ns;  // every PollMessage/PollCompletion hit

  static bool Sampled(uint64_t op_id) {
    static const int every =
        snap::TraceRecorder::Options{}.packet_sample_every;
    return op_id != 0 && op_id % static_cast<uint64_t>(every) == 0;
  }
  void Call(SpanKind kind, uint64_t seq, uint64_t op_id, int64_t begin,
            int64_t end) {
    const bool send =
        kind == SpanKind::kClientSend || kind == SpanKind::kServerSend;
    (send ? send_ns : poll_hit_ns).push_back(static_cast<double>(end - begin));
    if (Sampled(op_id)) {
      spans.push_back(Span{seq, op_id, begin, end, kind});
    }
  }
};

// Set-up: runtime construction, Init (UDP bind), both clients and
// streams, optional tracing, Start.
struct Session {
  std::unique_ptr<LiveRuntime> runtime;
  std::unique_ptr<snap::PonyClient> client;
  std::unique_ptr<snap::PonyClient> server;
  PonyAddress client_addr;
  PonyAddress server_addr;
  uint64_t ping_stream = 0;
  uint64_t reply_stream = 0;
  double setup_s = 0;
};

std::unique_ptr<Session> StartSession(uint64_t seed, bool traced,
                                      Report* report) {
  auto s = std::make_unique<Session>();
  const int64_t t0 = NowNs();
  LiveRuntime::Options options;
  options.num_hosts = kHosts;
  options.fabric = LiveRuntime::FabricKind::kUdp;
  options.scheduler.mode = snap::SchedulingMode::kDedicatedCores;
  options.seed = seed;
  s->runtime = std::make_unique<LiveRuntime>(options);
  snap::Status init = s->runtime->Init();
  if (!init.ok()) {
    report->Fail("LiveRuntime::Init: " + std::string(init.message()));
    return nullptr;
  }
  s->client = s->runtime->host(kClientHost)->CreateClient("bench-client");
  s->server = s->runtime->host(kServerHost)->CreateClient("bench-server");
  s->client_addr = s->runtime->host(kClientHost)->engine()->address();
  s->server_addr = s->runtime->host(kServerHost)->engine()->address();
  s->ping_stream = s->client->CreateStream(s->server_addr);
  s->reply_stream = s->server->CreateStream(s->client_addr);
  if (traced) {
    s->runtime->EnableTracing();
  }
  s->runtime->Start();
  s->setup_s = static_cast<double>(NowNs() - t0) / 1e9;
  return s;
}

struct ServerResult {
  int64_t echoes = 0;
  int64_t send_errors = 0;
  int64_t submit_full = 0;
  int64_t bad_requests = 0;
  bool drained = true;
  CallTrace trace;
};

// Echo loop: runs until `stop` is set and every echo's send completion
// is back (or the drain times out).
void ServeEchoes(Session* s, int64_t message_bytes,
                 const std::atomic<bool>* stop, ServerResult* out) {
  snap::CpuCostSink sink;
  snap::PonyClient* server = s->server.get();
  CallTrace& trace = out->trace;
  int64_t completions = 0;
  int64_t stop_seen_at = 0;
  for (;;) {
    bool progress = false;
    int64_t t0 = trace.on ? NowNs() : 0;
    std::optional<snap::PonyIncomingMessage> msg = server->PollMessage(&sink);
    if (msg) {
      progress = true;
      const uint64_t seq = Payloads::SeqOf(msg->data);
      if (trace.on) {
        trace.Call(SpanKind::kServerPollMessage, seq, msg->op_id, t0,
                   NowNs());
      }
      if (msg->length != message_bytes ||
          static_cast<int64_t>(msg->data.size()) != message_bytes) {
        out->bad_requests++;
      }
      for (;;) {
        t0 = trace.on ? NowNs() : 0;
        const uint64_t op =
            server->SendMessage(s->client_addr, s->reply_stream, msg->length,
                                msg->data, &sink);
        if (op != 0) {
          if (trace.on) {
            trace.Call(SpanKind::kServerSend, seq, op, t0, NowNs());
          }
          break;
        }
        out->submit_full++;
        while (auto done = server->PollCompletion(&sink)) {
          completions++;
          out->send_errors += done->status != snap::PonyOpStatus::kOk;
        }
      }
      out->echoes++;
    }
    for (;;) {
      t0 = trace.on ? NowNs() : 0;
      std::optional<snap::PonyCompletion> done = server->PollCompletion(&sink);
      if (!done) {
        break;
      }
      if (trace.on) {
        trace.poll_hit_ns.push_back(static_cast<double>(NowNs() - t0));
      }
      progress = true;
      completions++;
      out->send_errors += done->status != snap::PonyOpStatus::kOk;
    }
    if (!progress && stop->load(std::memory_order_acquire)) {
      if (completions >= out->echoes) {
        return;
      }
      const int64_t now = NowNs();
      if (stop_seen_at == 0) {
        stop_seen_at = now;
      } else if (now - stop_seen_at > kDrainTimeoutNs) {
        out->drained = false;
        return;
      }
    }
  }
}

struct ClientResult {
  int64_t attempted = 0;
  int64_t completed = 0;      // verified echoes, whole session
  int64_t measured = 0;       // completed inside the measure window
  int64_t mismatched = 0;     // wrong bytes, length or order
  int64_t late = 0;           // echo after the per-RPC deadline
  int64_t unreturned = 0;     // never echoed by the end of the drain
  int64_t send_errors = 0;
  int64_t submit_full = 0;
  int64_t empty_polls = 0;    // PollMessage calls that returned nothing
  int64_t allocs = 0;         // operator new calls in the measure window
  double window_s = 0;
  CallTrace trace;
};

// Closed loop on the calling thread: warm up, measure, then stop sending
// and drain what is outstanding.
void DriveClient(Session* s, const Payloads& payloads, int64_t message_bytes,
                 int outstanding, int64_t warmup_ns, int64_t window_ns,
                 std::vector<uint32_t>* rtt_ns, ClientResult* out) {
  snap::CpuCostSink sink;
  snap::PonyClient* client = s->client.get();
  CallTrace& trace = out->trace;
  constexpr uint64_t kRing = 64;  // > outstanding: send times by seq
  int64_t sent_at[kRing] = {};
  uint64_t next_seq = 0;
  uint64_t next_reply = 0;
  const int64_t t_start = NowNs();
  const int64_t t_measure = t_start + warmup_ns;
  const int64_t t_end = t_measure + window_ns;
  bool measuring = false;
  int64_t drain_deadline = 0;
  for (;;) {
    int64_t now = NowNs();
    if (!measuring && now >= t_measure && now < t_end) {
      measuring = true;
      out->allocs = AllocCount();
    }
    const bool sending = now < t_end;
    if (!sending) {
      if (measuring) {
        measuring = false;
        out->allocs = AllocCount() - out->allocs;
        out->window_s = static_cast<double>(now - t_measure) / 1e9;
        drain_deadline = now + kDrainTimeoutNs;
      }
      if (next_reply == next_seq) {
        break;
      }
      if (now > drain_deadline) {
        out->unreturned = static_cast<int64_t>(next_seq - next_reply);
        break;
      }
    }
    while (sending && next_seq - next_reply < static_cast<uint64_t>(
                                                  outstanding)) {
      const int64_t t0 = NowNs();
      const uint64_t op = client->SendMessage(
          s->server_addr, s->ping_stream, message_bytes,
          payloads.For(next_seq), &sink);
      if (op == 0) {
        out->submit_full++;
        break;
      }
      if (trace.on) {
        trace.Call(SpanKind::kClientSend, next_seq, op, t0, NowNs());
      }
      sent_at[next_seq % kRing] = t0;
      next_seq++;
      out->attempted++;
    }
    for (;;) {
      const int64_t t0 = trace.on ? NowNs() : 0;
      std::optional<snap::PonyCompletion> done = client->PollCompletion(&sink);
      if (!done) {
        break;
      }
      if (trace.on) {
        trace.poll_hit_ns.push_back(static_cast<double>(NowNs() - t0));
      }
      out->send_errors += done->status != snap::PonyOpStatus::kOk;
    }
    for (;;) {
      const int64_t t0 = NowNs();
      std::optional<snap::PonyIncomingMessage> msg = client->PollMessage(&sink);
      if (!msg) {
        out->empty_polls++;
        break;
      }
      const int64_t t1 = NowNs();
      const uint64_t seq = Payloads::SeqOf(msg->data);
      if (trace.on) {
        trace.Call(SpanKind::kClientPollMessage, seq, msg->op_id, t0, t1);
      }
      if (seq != next_reply || msg->length != message_bytes ||
          !payloads.Matches(seq, msg->data)) {
        out->mismatched++;
        next_reply++;  // count it once and keep the window moving
        continue;
      }
      const int64_t rtt = t1 - sent_at[seq % kRing];
      next_reply++;
      if (rtt > kRpcDeadlineNs) {
        out->late++;
        continue;
      }
      out->completed++;
      if (sent_at[seq % kRing] >= t_measure && t1 <= t_end &&
          rtt_ns->size() < rtt_ns->capacity()) {
        out->measured++;
        rtt_ns->push_back(static_cast<uint32_t>(rtt));
      }
    }
  }
}

// One measured session: the client and server loops, then Stop().
struct Segment {
  ClientResult client;
  ServerResult server;
  int64_t send_failures = 0;  // failed sendto calls during the session
  int64_t epoch_ns = 0;       // the session runtime's clock origin
  bool traced = false;

  double Rate() const {
    return client.window_s > 0
               ? static_cast<double>(client.measured) / client.window_s
               : 0;
  }
};

Segment RunSegment(Session* s, const Payloads& payloads,
                   int64_t message_bytes, int outstanding, int64_t warmup_ns,
                   int64_t window_ns, bool traced,
                   std::vector<uint32_t>* rtt_ns) {
  Segment seg;
  const int64_t send_failures0 = UdpSendFailures();
  seg.traced = traced;
  seg.client.trace.on = traced;
  seg.server.trace.on = traced;
  std::atomic<bool> stop{false};
  std::thread server_thread(ServeEchoes, s, message_bytes, &stop,
                            &seg.server);
  DriveClient(s, payloads, message_bytes, outstanding, warmup_ns, window_ns,
              rtt_ns, &seg.client);
  stop.store(true, std::memory_order_release);
  server_thread.join();
  s->runtime->Stop();
  seg.send_failures = UdpSendFailures() - send_failures0;
  seg.epoch_ns = s->runtime->epoch_ns();
  return seg;
}

// Failure accounting and correctness checks shared by every segment.
void Account(const Segment& seg, Session* s, Report* report) {
  const ClientResult& c = seg.client;
  report->attempted += c.attempted;
  report->failed += c.mismatched + c.late + c.unreturned;
  if (c.mismatched > 0) {
    report->Fail(std::to_string(c.mismatched) +
                 " echoes differ from their request (bytes, length or order)");
  }
  if (c.late + c.unreturned > 0) {
    report->Fail(std::to_string(c.late + c.unreturned) +
                 " RPCs missed the deadline");
  }
  if (c.send_errors + seg.server.send_errors > 0) {
    report->Fail("send completions with an error status");
  }
  if (seg.server.bad_requests > 0 || !seg.server.drained) {
    report->Fail("server saw malformed requests or could not drain");
  }
  for (int h = 0; h < kHosts; ++h) {
    const snap::PonyEngine::Stats& es = s->runtime->host(h)->engine()->stats();
    if (es.op_errors + es.crc_drops + es.corrupt_accepted > 0) {
      report->Fail("engine h" + std::to_string(h) +
                   " op_errors/crc_drops/corrupt_accepted > 0");
    }
  }
}

// Nearest-rank percentile of the round trips in [first, last), in
// microseconds; reorders that range.
using RttIt = std::vector<uint32_t>::iterator;
double PercentileUs(RttIt first, RttIt last, double p) {
  const size_t n = static_cast<size_t>(last - first);
  if (n == 0) {
    return 0;
  }
  const double rank = std::ceil(p / 100.0 * static_cast<double>(n));
  const size_t index = std::min(n, static_cast<size_t>(std::max(rank, 1.0)));
  std::nth_element(first, first + static_cast<long>(index - 1), last);
  return static_cast<double>(first[static_cast<long>(index - 1)]) / 1e3;
}

double PerRpc(double value, int64_t rpcs) {
  return rpcs > 0 ? value / static_cast<double>(rpcs) : 0;
}

// What a run's sessions of one kind (untraced or traced) add up to.
// Per-layer counters cover whole sessions (warm-up and drain included) and
// are normalized by the RPCs those sessions completed.
struct Totals {
  int64_t completed = 0;
  int64_t measured = 0;
  int64_t allocs = 0;
  int64_t empty_polls = 0;
  int64_t submit_full = 0;
  // Round trips (ns) of RPCs sent inside the measure windows. Reserved
  // once, so the benchmark's own bookkeeping does not reallocate while
  // peak RSS is being measured.
  std::vector<uint32_t> rtt_ns;
  // Per session: RPC rate and median round trip. The end-to-end metrics
  // are medians over sessions, so a minority of sessions in another mode
  // (thread placement, a neighbour's burst) does not move them.
  std::vector<double> session_rate;
  std::vector<double> session_p50_us;
  int64_t tx = 0, rx = 0, retransmits = 0, rto = 0, dups = 0;
  int64_t ring_full = 0, rx_drops = 0;
  int64_t passes = 0, work = 0, parks = 0, server_busy_ns = 0;
  int64_t udp_delivered = 0, udp_dropped = 0, send_failures = 0;

  Totals() { rtt_ns.reserve(kMaxRttSamples); }

  // Reads a stopped session's counters. The session's round trips are the
  // last seg.client.measured entries of rtt_ns.
  void Add(Session* s, const Segment& seg) {
    const ClientResult& c = seg.client;
    session_rate.push_back(seg.Rate());
    session_p50_us.push_back(
        PercentileUs(rtt_ns.end() - static_cast<long>(c.measured),
                     rtt_ns.end(), 50));
    completed += c.completed;
    measured += c.measured;
    allocs += c.allocs;
    empty_polls += c.empty_polls;
    submit_full += c.submit_full + seg.server.submit_full;
    LiveRuntime& rt = *s->runtime;
    for (int h = 0; h < kHosts; ++h) {
      snap::LiveHost* host = rt.host(h);
      tx += host->engine()->stats().tx_packets;
      rx += host->engine()->stats().rx_packets;
      host->engine()->ForEachFlow([this](const snap::Flow& flow) {
        retransmits += flow.stats().retransmits;
        rto += flow.stats().rto_events;
        dups += flow.stats().duplicates_received;
      });
      ring_full += host->nic()->stats().tx_ring_full;
      for (int q = 0; q < host->nic()->num_queues(); ++q) {
        rx_drops += host->nic()->queue(q)->stats().dropped_ring_full;
      }
    }
    snap::LiveScheduler* sched = rt.scheduler();
    for (int w = 0; w < sched->num_workers(); ++w) {
      snap::LiveScheduler::WorkerStats ws = sched->GetWorkerStats(w);
      passes += ws.passes;
      work += ws.work_items;
      parks += ws.parks;
      // Executors are registered in host order: executor 1 is the
      // server host's.
      if (ws.passes_by_exec.size() > kServerHost &&
          ws.passes_by_exec[kServerHost] > 0) {
        server_busy_ns += ws.busy_ns;
      }
    }
    const LiveRuntime::FabricStats fabric = rt.GetFabricStats();
    udp_delivered += fabric.delivered;
    udp_dropped += fabric.dropped;
    send_failures += seg.send_failures;
  }

  // Reorders rtt_ns.
  void AddLayerMetrics(Report* report) {
    auto per_rpc = [this](int64_t v) {
      return PerRpc(static_cast<double>(v), completed);
    };
    report->Add("rpc_p99_us", PercentileUs(rtt_ns.begin(), rtt_ns.end(), 99),
                "us");
    report->Add("rpc.latency_samples", static_cast<double>(rtt_ns.size()),
                "count");
    report->Add("pony.client.empty_polls_per_rpc", per_rpc(empty_polls),
                "ratio");
    report->Add("pony.client.submit_full_per_rpc", per_rpc(submit_full),
                "ratio");
    report->Add("live.allocs_per_rpc",
                PerRpc(static_cast<double>(allocs), measured), "ratio");
    report->Add("live.worker.busy_ns_per_rpc", per_rpc(server_busy_ns),
                "ns");
    report->Add("live.worker.passes_per_rpc", per_rpc(passes), "ratio");
    report->Add("live.worker.work_per_pass",
                PerRpc(static_cast<double>(work), passes), "ratio");
    report->Add("live.worker.parks_per_rpc", per_rpc(parks), "ratio");
    report->Add("pony.engine.tx_packets_per_rpc", per_rpc(tx), "ratio");
    report->Add("pony.engine.rx_packets_per_rpc", per_rpc(rx), "ratio");
    report->Add("pony.flow.retransmits_per_rpc", per_rpc(retransmits),
                "ratio");
    report->Add("pony.flow.rto_events", static_cast<double>(rto), "count");
    report->Add("pony.flow.duplicates", static_cast<double>(dups), "count");
    report->Add("net.nic.tx_ring_full", static_cast<double>(ring_full),
                "count");
    report->Add("net.nic.rx_ring_drops", static_cast<double>(rx_drops),
                "count");
    report->Add("live.udp.delivered_per_rpc", per_rpc(udp_delivered),
                "ratio");
    report->Add("live.udp.dropped_send", static_cast<double>(send_failures),
                "count");
    // The runtime exposes one drop total; what is not a failed sendto is
    // a decode (or bad-address) drop.
    report->Add("live.udp.dropped_decode",
                static_cast<double>(
                    std::max<int64_t>(0, udp_dropped - send_failures)),
                "count");
  }
};

// ---------------------------------------------------------------------------
// Stage breakdown of a traced segment.
//
// A message (request or echo) is keyed by (sending host, op id). Its chain
// of boundary times, all on the runtime's monotonic epoch:
//   enqueue    app SendMessage entry                 (this file's span)
//   engine_tx  first fragment built by the engine    (program trace point)
//   nic_tx     first fragment accepted by the NIC    (program trace point)
//   fabric     first fragment's sendto entry         (socket probe)
//   nic_rx     first fragment's recvfrom return      (socket probe)
//   rx_engine  first fragment processed by RX engine (program trace point)
//   deliver    message pushed to the app ring        (program trace point)
//   app        app PollMessage returned it           (this file's span)
// Program trace points carry the executor pass's start time, so a point
// can read earlier than a real-time boundary inside the same pass. Each
// time is clamped to be no earlier than the previous one: a stage inside
// one pass reads 0 and its time lands on the next boundary. The stages
// therefore sum exactly to the one-way app-to-app latency.
// ---------------------------------------------------------------------------
constexpr int kBoundaries = 8;
const char* const kStageNames[kBoundaries - 1] = {
    "stage.enqueue_to_engine_tx_us", "stage.engine_tx_to_nic_tx_us",
    "stage.nic_tx_to_fabric_us",     "stage.wire_us",
    "stage.nic_rx_to_rx_engine_us",  "stage.rx_engine_to_deliver_us",
    "stage.deliver_to_app_us"};
enum Boundary { kEnqueue, kEngineTx, kNicTx, kFabric, kNicRx, kRxEngine,
                kDeliver, kApp };

struct Chain {
  int64_t t[kBoundaries];
  Chain() { std::fill(t, t + kBoundaries, int64_t{-1}); }
  void First(Boundary b, int64_t ts) {
    if (t[b] < 0 || ts < t[b]) {
      t[b] = ts;
    }
  }
};

// Joins the traced sessions' boundary points into per-message chains and
// pools the stage durations across sessions.
class StageBreakdown {
 public:
  // Reads a stopped traced session (and drains the socket probe).
  void Add(Session* s, const Segment& seg) {
    const int64_t epoch = s->runtime->epoch_ns();
    std::vector<Point> points;
    auto add = [&points](int sender, uint64_t op, Boundary b, int64_t ts) {
      points.push_back(Point{sender, op, b, ts});
    };
    for (const Span& span : seg.client.trace.spans) {
      if (span.kind == SpanKind::kClientSend) {
        add(kClientHost, span.op_id, kEnqueue, span.begin - epoch);
      } else if (span.kind == SpanKind::kClientPollMessage) {
        add(kServerHost, span.op_id, kApp, span.end - epoch);
      }
    }
    for (const Span& span : seg.server.trace.spans) {
      if (span.kind == SpanKind::kServerSend) {
        add(kServerHost, span.op_id, kEnqueue, span.begin - epoch);
      } else if (span.kind == SpanKind::kServerPollMessage) {
        add(kClientHost, span.op_id, kApp, span.end - epoch);
      }
    }
    for (const DatagramRecord& r : TakeSendRecords()) {
      add(r.src_host, r.op_id, kFabric, r.t_ns - epoch);
    }
    for (const DatagramRecord& r : TakeRecvRecords()) {
      add(r.src_host, r.op_id, kNicRx, r.t_ns - epoch);
    }
    std::unique_ptr<snap::TraceRecorder> merged = s->runtime->MergedTrace();
    for (const snap::TraceEvent& e : merged->events()) {
      if (e.name != "msg" || std::strcmp(e.category, "pkt") != 0) {
        continue;
      }
      // Host h's recorder sits at tid offset h * kHostTrackStride; the
      // scheduler's worker recorders come after the hosts.
      const int recorder = e.tid / LiveRuntime::kHostTrackStride;
      if (recorder >= kHosts) {
        continue;
      }
      const int other = kHosts - 1 - recorder;
      program_points_++;
      if (e.args.find("\"engine_tx\"") != std::string::npos) {
        add(recorder, e.id, kEngineTx, e.ts);
      } else if (e.args.find("\"nic_tx\"") != std::string::npos) {
        add(recorder, e.id, kNicTx, e.ts);
      } else if (e.args.find("\"rx_engine\"") != std::string::npos) {
        add(other, e.id, kRxEngine, e.ts);
      } else if (e.args.find("\"deliver\"") != std::string::npos) {
        add(other, e.id, kDeliver, e.ts);
      }
    }
    std::sort(points.begin(), points.end(),
              [](const Point& x, const Point& y) {
                return std::tie(x.sender, x.op_id) <
                       std::tie(y.sender, y.op_id);
              });
    for (size_t i = 0; i < points.size();) {
      Chain chain;
      size_t j = i;
      for (; j < points.size() && points[j].sender == points[i].sender &&
             points[j].op_id == points[i].op_id;
           ++j) {
        chain.First(points[j].boundary, points[j].ts);
      }
      i = j;
      keyed_++;
      if (!chain.Complete()) {
        continue;  // a point fell outside the session or was not sampled
      }
      joined_++;
      int64_t prev = chain.t[0];
      for (int b = 1; b < kBoundaries; ++b) {
        const int64_t t = std::max(chain.t[b], prev);
        stage_us_[b - 1].push_back(static_cast<double>(t - prev) / 1e3);
        prev = t;
      }
    }
  }

  // Prints the self-time table and adds the stage metrics.
  void Finish(Report* report) {
    std::printf("stage self time over %lld joined messages of %lld keyed "
                "(%lld program trace points; both directions):\n",
                static_cast<long long>(joined_),
                static_cast<long long>(keyed_),
                static_cast<long long>(program_points_));
    std::printf("  %-34s %10s %10s %10s %7s\n", "stage", "p50_us", "p99_us",
                "mean_us", "share");
    std::vector<double> means;
    double total = 0;
    for (const std::vector<double>& v : stage_us_) {
      double sum = 0;
      for (double x : v) {
        sum += x;
      }
      means.push_back(v.empty() ? 0 : sum / static_cast<double>(v.size()));
      total += means.back();
    }
    for (int i = 0; i < kBoundaries - 1; ++i) {
      const double p50 = Percentile(&stage_us_[i], 50);
      const double p99 = Percentile(&stage_us_[i], 99);
      std::printf("  %-34s %10.3f %10.3f %10.3f %6.1f%%\n", kStageNames[i],
                  p50, p99, means[i], total > 0 ? 100 * means[i] / total : 0);
      std::string base(kStageNames[i]);
      base.resize(base.size() - 3);  // "stage.x_us" -> "stage.x"
      report->Add(base + "_p50_us", p50, "us");
      report->Add(base + "_p99_us", p99, "us");
    }
    if (joined_ == 0) {
      report->Fail("traced sessions joined no message lifecycle");
    }
  }

 private:
  struct Point {
    int sender;
    uint64_t op_id;
    Boundary boundary;
    int64_t ts;
  };
  struct Chain {
    int64_t t[kBoundaries];
    Chain() { std::fill(t, t + kBoundaries, int64_t{-1}); }
    void First(Boundary b, int64_t ts) {
      if (t[b] < 0 || ts < t[b]) {
        t[b] = ts;
      }
    }
    bool Complete() const {
      return std::all_of(t, t + kBoundaries, [](int64_t x) { return x >= 0; });
    }
  };

  std::vector<double> stage_us_[kBoundaries - 1];
  int64_t keyed_ = 0;
  int64_t joined_ = 0;
  int64_t program_points_ = 0;
};

// Spans stay in memory during the run and are written out at its end,
// one JSON object per line (times on each session's runtime epoch).
void WriteSpans(const Args& args, const std::vector<Segment>& sessions) {
  const std::string path = std::string(kOutDir) + "/" + args.workload +
                           "_spans_seed" + std::to_string(args.seed) +
                           ".jsonl";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::printf("note: cannot write %s\n", path.c_str());
    return;
  }
  size_t written = 0;
  for (size_t session = 0; session < sessions.size(); ++session) {
    const Segment& seg = sessions[session];
    for (const CallTrace* t : {&seg.client.trace, &seg.server.trace}) {
      for (const Span& span : t->spans) {
        std::fprintf(f,
                     "{\"id\": %llu, \"name\": \"%s\", \"session\": %zu, "
                     "\"op_id\": %llu, \"begin_ns\": %lld, \"end_ns\": "
                     "%lld}\n",
                     static_cast<unsigned long long>(span.seq),
                     SpanName(span.kind), session,
                     static_cast<unsigned long long>(span.op_id),
                     static_cast<long long>(span.begin - seg.epoch_ns),
                     static_cast<long long>(span.end - seg.epoch_ns));
        written++;
      }
    }
  }
  std::fclose(f);
  std::printf("spans: %zu sampled call spans written to %s\n", written,
              path.c_str());
}

// Prints the run's failure accounting over every session: RPCs attempted,
// completed and failed by cause, with back-pressure counted apart (a
// refused SendMessage is retried, not failed).
void NoteAccounting(const Args& args, const std::vector<Segment>& sessions,
                    size_t latency_samples) {
  int64_t attempted = 0, completed = 0, late = 0, unreturned = 0;
  int64_t mismatched = 0, send_errors = 0, back_pressure = 0;
  for (const Segment& seg : sessions) {
    attempted += seg.client.attempted;
    completed += seg.client.completed;
    late += seg.client.late;
    unreturned += seg.client.unreturned;
    mismatched += seg.client.mismatched;
    send_errors += seg.client.send_errors + seg.server.send_errors;
    back_pressure += seg.client.submit_full + seg.server.submit_full;
  }
  std::printf("%s: %lld RPCs attempted, %lld completed, %lld failed (%lld "
              "past the deadline, %lld never echoed, %lld payload "
              "mismatches), %lld send errors, %lld back-pressured sends; "
              "%zu latency samples\n",
              args.workload.c_str(), static_cast<long long>(attempted),
              static_cast<long long>(completed),
              static_cast<long long>(late + unreturned + mismatched),
              static_cast<long long>(late),
              static_cast<long long>(unreturned),
              static_cast<long long>(mismatched),
              static_cast<long long>(send_errors),
              static_cast<long long>(back_pressure), latency_samples);
}

}  // namespace

void RunLiveUdp(const Args& args, int64_t message_bytes, int outstanding,
                Report* report) {
  const Payloads payloads(args.seed, message_bytes);
  const int64_t start = NowNs();
  const int64_t budget = static_cast<int64_t>(args.seconds * 1e9);
  const int64_t warmup = std::min<int64_t>(kWarmupNs, budget / 40);

  // Set-up alone, repeated. Measured sessions are set up too but not
  // sampled: each follows a session of load, which skews its set-up.
  std::vector<double> setup;
  for (int i = 0; i < kSetupRepetitions; ++i) {
    std::unique_ptr<Session> s = StartSession(args.seed, false, report);
    if (s == nullptr) {
      return;
    }
    setup.push_back(s->setup_s);
    s->runtime->Stop();
  }

  // Traced runs alternate untraced and traced sessions, so the overhead
  // comparison is not biased by order.
  const int64_t per_session =
      std::max<int64_t>((budget - (NowNs() - start)) / kSessions - warmup,
                        budget / 20);
  Totals untraced, traced;
  StageBreakdown stages;
  std::vector<Segment> sessions;
  int threads = 0;
  for (int i = 0; i < kSessions; ++i) {
    const bool trace_this = args.trace && i % 2 == 1;
    std::unique_ptr<Session> s = StartSession(args.seed, trace_this, report);
    if (s == nullptr) {
      return;
    }
    threads = s->runtime->scheduler()->num_workers() + 2;
    ArmUdpProbe(trace_this);
    Totals& totals = trace_this ? traced : untraced;
    Segment seg = RunSegment(s.get(), payloads, message_bytes, outstanding,
                             warmup, per_session, trace_this, &totals.rtt_ns);
    ArmUdpProbe(false);
    Account(seg, s.get(), report);
    totals.Add(s.get(), seg);
    std::printf("session %d%s: %.0f rpc/s, p50 %.3f us over %lld RPCs\n", i,
                trace_this ? " (traced)" : "", totals.session_rate.back(),
                totals.session_p50_us.back(),
                static_cast<long long>(seg.client.measured));
    if (trace_this) {
      stages.Add(s.get(), seg);
    }
    sessions.push_back(std::move(seg));
  }
  PrintStamp(args, threads, "UDP over the host loopback interface");
  NoteAccounting(args, sessions, untraced.rtt_ns.size());
  if (untraced.measured == 0 || (args.trace && traced.measured == 0)) {
    report->Fail("no RPC completed inside a measure window");
    return;
  }

  if (!args.trace) {
    const double peak_rss_mb = PeakRssMb();  // before any sorting
    report->Add("setup_s", Median(setup), "s");
    const double rate = Median(untraced.session_rate);
    report->Add("sim_wall_s", kRpcsPerUnit / rate, "s");
    report->Add("rpc_per_s", rate, "1/s");
    report->Add("rpc_p50_us", Median(untraced.session_p50_us), "us");
    report->Add("peak_rss_mb", peak_rss_mb, "MB");
    return;
  }

  untraced.AddLayerMetrics(report);
  std::vector<double> send_ns, hit_ns;
  for (const Segment& seg : sessions) {
    for (const CallTrace* t : {&seg.client.trace, &seg.server.trace}) {
      send_ns.insert(send_ns.end(), t->send_ns.begin(), t->send_ns.end());
      hit_ns.insert(hit_ns.end(), t->poll_hit_ns.begin(),
                    t->poll_hit_ns.end());
    }
  }
  report->Add("pony.client.send_ns_p50", Percentile(&send_ns, 50), "ns");
  report->Add("pony.client.send_ns_p99", Percentile(&send_ns, 99), "ns");
  report->Add("pony.client.poll_hit_ns_p50", Percentile(&hit_ns, 50), "ns");
  stages.Finish(report);
  report->Add("trace.overhead_pct",
              (1 - Median(traced.session_rate) /
                       Median(untraced.session_rate)) *
                  100,
              "%");
  std::printf("tracing overhead: %.0f rpc/s untraced vs %.0f rpc/s traced\n",
              Median(untraced.session_rate), Median(traced.session_rate));
  WriteSpans(args, sessions);
}

}  // namespace perfbench
