// Outside-in tracing, estimators and the per-layer call probes.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>

#include "bench.hpp"
#include "router/router.hpp"
#include "server/server.hpp"
#include "capsule/metadata.hpp"
#include "capsule/proof.hpp"
#include "capsule/state.hpp"
#include "capsule/strategy.hpp"
#include "capsule/writer.hpp"
#include "crypto/hmac.hpp"
#include "crypto/keys.hpp"
#include "crypto/sha256.hpp"
#include "store/logstore.hpp"
#include "wire/messages.hpp"

namespace gdpbench {

using namespace gdp;

const std::vector<LayerMetricSpec> kLayerMetrics = {
    {"error_rate", "ratio"},
    {"client.issue_us", "us"},
    {"client.complete_us", "us"},
    {"client.retries", "count"},
    {"client.timeouts", "count"},
    {"server.append_us", "us"},
    {"server.read_us", "us"},
    {"server.replica_us", "us"},
    {"server.rejects", "count"},
    {"crypto.sign_us", "us"},
    {"crypto.verify_us", "us"},
    {"crypto.ecdh_us", "us"},
    {"crypto.hmac_us", "us"},
    {"crypto.sha256_MBps", "MiB/s"},
    {"capsule.ingest_us", "us"},
    {"capsule.build_proof_us", "us"},
    {"capsule.verify_proof_us", "us"},
    {"store.append_us", "us"},
    {"store.sync_us", "us"},
    {"store.flushes_per_append", "ratio"},
    {"store.bytes_per_user_byte", "ratio"},
    {"store.reopen_us_per_record", "us"},
    {"wire.encode_us", "us"},
    {"wire.decode_us", "us"},
    {"wire.copied_bytes_per_pdu", "B"},
    {"wire.segment_allocs", "count"},
    {"net.pdus_per_op", "count"},
    {"net.bytes_per_op", "B"},
    {"net.max_pdu_bytes", "B"},
    {"net.serialization_ms", "ms"},
    {"net.propagation_ms", "ms"},
    {"net.queueing_ms", "ms"},
    {"sim.events_per_op", "count"},
    {"sim.append_ms_p50", "ms"},
    {"sim.append_ms_p99", "ms"},
    {"sim.read_ms_p50", "ms"},
    {"sim.read_ms_p99", "ms"},
    {"sim.save_s", "s"},
    {"sim.load_s", "s"},
    {"router.fwd_ns", "ns"},
    {"router.fib_miss_ratio", "ratio"},
    {"router.drops", "count"},
    {"glookup.queries_per_op", "count"},
    {"dp.produce_ns", "ns"},
    {"dp.producer_wait_share", "ratio"},
    {"dp.fwd_ns_p50", "ns"},
    {"dp.stalls", "count"},
    {"dp.shard_skew", "ratio"},
    {"dp.scaling_eff", "ratio"},
    {"caapi.fs.refresh_us", "us"},
    {"caapi.scl.cas_win_ratio", "ratio"},
    {"trust.verify_cache_hit_ratio", "ratio"},
    {"trust.handshake_ms", "ms"},
    {"trace.unattributed_us_per_op", "us"},
    {"trace.overhead_pct", "%"},
    {"trace.spans_per_op", "count"},
    {"trace.uncaused_spans", "count"},
};

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t sum_counters(const telemetry::MetricsRegistry& reg, const std::string& prefix,
                           const std::string& part, Match match) {
  // The registry exposes its counters through to_json() only:
  // {"counters": {"name": value, ...}, "histograms": {...}}.
  const std::string json = reg.to_json(0);
  const std::size_t end = json.find("\"histograms\"");
  std::uint64_t total = 0;
  std::size_t pos = json.find("\"counters\"");
  while (pos != std::string::npos) {
    const std::size_t open = json.find('"', pos + 1);
    if (open == std::string::npos || open >= end) break;
    const std::size_t close = json.find('"', open + 1);
    const std::string name = json.substr(open + 1, close - open - 1);
    const std::size_t colon = json.find(':', close);
    pos = close;
    if (name == "counters" || name.size() < prefix.size() + part.size() ||
        name.compare(0, prefix.size(), prefix) != 0) {
      continue;
    }
    const bool hit = match == Match::kSuffix
                         ? name.compare(name.size() - part.size(), part.size(), part) == 0
                         : name.find(part, prefix.size()) != std::string::npos;
    if (hit) total += std::strtoull(json.c_str() + colon + 1, nullptr, 10);
  }
  return total;
}

bool drain_network(net::Network& net) {
  auto in_flight = [&net] {
    return net.metrics().counter("net.pdus.sent").value() !=
           net.pdus_delivered() + net.pdus_dropped();
  };
  for (int step = 0; in_flight() && step < 100000; ++step) {
    net.sim().run_until(net.sim().now() + from_micros(100));
  }
  return !in_flight();
}

StackCounts StackCounts::read(const telemetry::MetricsRegistry& m) {
  StackCounts c;
  // client.<label>.read.retries, not .read.retries_denied (refused retries).
  c.client_retries = sum_counters(m, "client.", ".read.retries", Match::kSuffix);
  c.client_timeouts = sum_counters(m, "client.", ".ops.timed_out", Match::kSuffix);
  c.server_rejects = sum_counters(m, "server.", ".appends.rejected", Match::kSuffix) +
                     sum_counters(m, "server.", ".shed.", Match::kInfix) +
                     sum_counters(m, "server.", ".drop.", Match::kInfix);
  c.fib_hits = sum_counters(m, "router.", ".fib.hits", Match::kSuffix);
  c.fib_misses = sum_counters(m, "router.", ".fib.misses", Match::kSuffix);
  c.router_drops = sum_counters(m, "router.", ".drop.pdus", Match::kSuffix);
  c.glookup_queries = sum_counters(m, "glookup.", ".queries.served", Match::kSuffix);
  c.cas_win = sum_counters(m, "server.", ".scl.cas.win", Match::kSuffix);
  c.cas_conflict = sum_counters(m, "server.", ".scl.cas.conflict", Match::kSuffix);
  return c;
}

StackCounts StackCounts::operator-(const StackCounts& o) const {
  StackCounts c;
  c.client_retries = client_retries - o.client_retries;
  c.client_timeouts = client_timeouts - o.client_timeouts;
  c.server_rejects = server_rejects - o.server_rejects;
  c.fib_hits = fib_hits - o.fib_hits;
  c.fib_misses = fib_misses - o.fib_misses;
  c.router_drops = router_drops - o.router_drops;
  c.glookup_queries = glookup_queries - o.glookup_queries;
  c.cas_win = cas_win - o.cas_win;
  c.cas_conflict = cas_conflict - o.cas_conflict;
  return c;
}

void StackCounts::fill(double ops, Report& r) const {
  r.layer["client.retries"] = {static_cast<double>(client_retries), "count"};
  r.layer["client.timeouts"] = {static_cast<double>(client_timeouts), "count"};
  r.layer["server.rejects"] = {static_cast<double>(server_rejects), "count"};
  const double lookups = static_cast<double>(fib_hits + fib_misses);
  r.layer["router.fib_miss_ratio"] = {lookups > 0 ? static_cast<double>(fib_misses) / lookups : 0,
                                      "ratio"};
  r.layer["router.drops"] = {static_cast<double>(router_drops), "count"};
  r.layer["glookup.queries_per_op"] = {static_cast<double>(glookup_queries) / ops, "count"};
  const double cas = static_cast<double>(cas_win + cas_conflict);
  r.layer["caapi.scl.cas_win_ratio"] = {cas > 0 ? static_cast<double>(cas_win) / cas : 0, "ratio"};
}

// ---- Tracer -------------------------------------------------------------------

class Tracer::NodeTap final : public net::PduHandler {
 public:
  NodeTap(Tracer& t, std::uint32_t node, net::PduHandler* inner)
      : t_(t), node_(node), inner_(inner) {}
  void on_pdu(const Name& from, const wire::Pdu& pdu) override {
    inner_->on_pdu(from, pdu);
  }
  void on_pdu_view(const Name& from, wire::PduView view) override {
    const std::uint32_t id = t_.begin_delivery(node_, from, view);
    inner_->on_pdu_view(from, std::move(view));
    t_.end(id);
  }
  void on_link_state(const Name& neighbor, bool up) override {
    inner_->on_link_state(neighbor, up);
  }

 private:
  Tracer& t_;
  std::uint32_t node_;
  net::PduHandler* inner_;
};

Tracer::Tracer(net::Network& net) : net_(net) {
  spans_.reserve(1 << 16);
  spans_.emplace_back();                // span id 0 = "no span"
  kinds_.push_back(NodeKind::kSource);  // node index 0 = "unknown node"
}

Tracer::~Tracer() {
  for (const auto& [name, inner] : wrapped_) net_.attach(name, inner);
}

std::uint32_t Tracer::add_node(const Name& name, NodeKind kind) {
  auto [it, inserted] =
      node_index_.try_emplace(name, static_cast<std::uint32_t>(kinds_.size()));
  if (inserted) kinds_.push_back(kind);
  return it->second;
}

void Tracer::tap(const Name& name, NodeKind kind, net::PduHandler* inner) {
  const std::uint32_t idx = add_node(name, kind);
  taps_.push_back(std::make_unique<NodeTap>(*this, idx, inner));
  wrapped_.emplace_back(name, inner);
  net_.attach(name, taps_.back().get());
}

void Tracer::set_link(const Name& a, const Name& b, net::LinkParams p) {
  const std::uint32_t ia = node_index_.at(a);
  const std::uint32_t ib = node_index_.at(b);
  links_[{ia, ib}] = Link{p};
  links_[{ib, ia}] = Link{p};
}

std::uint32_t Tracer::begin(SpanKind kind, const Name& node, std::string name) {
  Span s;
  s.kind = kind;
  s.node = node_index_.at(node);
  s.sim_ns = net_.sim().now().count();
  s.name = std::move(name);
  spans_.push_back(std::move(s));
  const auto id = static_cast<std::uint32_t>(spans_.size() - 1);
  stack_.push_back(id);
  spans_[id].wall_start = wall_ns();
  return id;
}

std::uint32_t Tracer::begin_delivery(std::uint32_t node, const Name& from,
                                     const wire::PduView& view) {
  Span s;
  s.kind = SpanKind::kDelivery;
  s.node = node;
  auto it = node_index_.find(from);
  s.from = it == node_index_.end() ? 0 : it->second;
  s.pdu_type = static_cast<std::uint16_t>(view.type());
  s.wire_bytes = static_cast<std::uint32_t>(view.wire_size());
  s.trace_id = view.trace_id();
  s.sim_ns = net_.sim().now().count();
  spans_.push_back(std::move(s));
  const auto id = static_cast<std::uint32_t>(spans_.size() - 1);
  stack_.push_back(id);
  spans_[id].wall_start = wall_ns();
  return id;
}

void Tracer::end(std::uint32_t id) {
  Span& s = spans_[id];
  s.wall_end = wall_ns();
  stack_.pop_back();
  if (!stack_.empty()) spans_[stack_.back()].child_ns += s.wall_end - s.wall_start;
}

Tracer::CauseStats Tracer::resolve_causes() {
  // Spans seen per trace id and, per node, its spans in order.
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> by_trace;
  std::vector<std::vector<std::uint32_t>> by_node(kinds_.size());
  // Per directed link, when its last PDU finished serializing.
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::int64_t> busy_until;
  CauseStats stats;
  for (std::uint32_t id = 1; id < spans_.size(); ++id) {
    Span& s = spans_[id];
    if (s.kind != SpanKind::kDelivery) {
      by_node[s.node].push_back(id);  // issue and call spans are op roots
      continue;
    }
    // When the PDU started serializing on its last link.  The link was idle
    // at the send when that is after the previous PDU's serialization end,
    // and then the send happened exactly then; otherwise it queued.
    std::int64_t start = s.sim_ns;
    bool idle = false;
    if (auto link = links_.find({s.from, s.node}); link != links_.end()) {
      const auto& p = link->second.params;
      start -= p.latency.count() + static_cast<std::int64_t>(static_cast<double>(s.wire_bytes) *
                                                             8.0 / p.bandwidth_bps * 1e9);
      auto [prev, first] = busy_until.try_emplace(link->first, start);
      idle = first || start > prev->second;
      prev->second = s.sim_ns - p.latency.count();
    }

    // Forwarded hop: the sender saw the same trace id before.
    std::uint32_t cause = 0;
    if (auto hit = by_trace.find(s.trace_id); hit != by_trace.end()) {
      for (auto it = hit->second.rbegin(); it != hit->second.rend(); ++it) {
        if (spans_[*it].node == s.from) {
          cause = *it;
          break;
        }
      }
    }
    // First hop: the sender's latest span that sent it — at the send time
    // when the link was idle, else no later than `start`.  It cannot be the
    // delivery of a younger PDU: the network numbers trace ids in send
    // order, so a delivery carrying a larger id began after this PDU left.
    // A blocking call (a call span this delivery nests in) also sends from
    // its own code between the simulator steps it takes while waiting.
    if (cause == 0) {
      const auto& cands = by_node[s.from];
      for (auto it = cands.rbegin(); it != cands.rend(); ++it) {
        const Span& c = spans_[*it];
        if (c.kind == SpanKind::kDelivery && c.trace_id > s.trace_id) continue;
        const bool open_call = c.kind == SpanKind::kCall && c.wall_end > s.wall_start;
        if (idle ? c.sim_ns == start || (open_call && c.sim_ns <= start) : c.sim_ns <= start) {
          cause = *it;
          break;
        }
      }
    }
    s.cause = cause;
    // A first hop sent over an idle link when its sender ran no span was
    // sent by a timer (load reports, anti-entropy): a background root.
    if (cause == 0) ++(idle ? stats.background_roots : stats.uncaused);
    by_trace[s.trace_id].push_back(id);
    by_node[s.node].push_back(id);
  }
  return stats;
}

Tracer::HopTerms Tracer::blocking_path(std::uint32_t last, std::uint32_t root) const {
  HopTerms t;
  std::uint32_t id = last;
  std::size_t guard = 0;
  while (id != 0 && id != root && guard++ < 4096) {
    const Span& s = spans_[id];
    if (s.kind != SpanKind::kDelivery || s.cause == 0) break;
    const Span& c = spans_[s.cause];
    auto link = links_.find({s.from, s.node});
    if (link != links_.end()) {
      const auto& p = link->second.params;
      const double prop = static_cast<double>(p.latency.count());
      const double ser = static_cast<double>(static_cast<std::int64_t>(
          static_cast<double>(s.wire_bytes) * 8.0 / p.bandwidth_bps * 1e9));
      t.propagation_ns += prop;
      t.serialization_ns += ser;
      t.queueing_ns += static_cast<double>(s.sim_ns - c.sim_ns) - prop - ser;
      ++t.hops;
    }
    id = s.cause;
  }
  t.reached_root = id == root;
  return t;
}

std::string layer_key(const Tracer& t, const Span& s) {
  if (s.kind == SpanKind::kIssue) return "client.issue";
  if (s.kind == SpanKind::kCall) return s.name;
  switch (t.kind_of(s.node)) {
    case NodeKind::kClient:
      return "client.complete";
    case NodeKind::kServer:
      switch (static_cast<wire::MsgType>(s.pdu_type)) {
        case wire::MsgType::kAppend:
        case wire::MsgType::kCondAppend:
          return "server.append";
        case wire::MsgType::kRead:
          return "server.read";
        case wire::MsgType::kStatus:  // a peer's durability ack
        case wire::MsgType::kSyncPull:
        case wire::MsgType::kSyncPush:
        case wire::MsgType::kSyncSummary:
        case wire::MsgType::kSyncDescend:
        case wire::MsgType::kSyncRange:
          return "server.replica";
        default:
          return "server.type" + std::to_string(s.pdu_type);
      }
    case NodeKind::kRouter:
      return "router";
    case NodeKind::kGlookup:
      return "glookup";
    case NodeKind::kSink:
    case NodeKind::kSource:
      return "sink";
  }
  return "other";
}

LayerTotals layer_totals(const Tracer& t, std::size_t first_span, std::size_t end_span) {
  LayerTotals out;
  const auto& spans = t.spans();
  for (std::size_t i = std::max<std::size_t>(first_span, 1); i < end_span; ++i) {
    const Span& s = spans[i];
    const std::string key = layer_key(t, s);
    const auto self = static_cast<double>(s.self_ns());
    out.self_ns[key] += self;
    out.n[key] += 1;
    out.total_self_ns += self;
  }
  return out;
}

double LayerTotals::per_span_ns(const std::string& key) const {
  auto it = n.find(key);
  return it == n.end() ? 0.0 : self_ns.at(key) / static_cast<double>(it->second);
}

double LayerTotals::per_op_ns(const std::string& key, double ops) const {
  auto it = self_ns.find(key);
  return it == self_ns.end() ? 0.0 : it->second / ops;
}

StoreRatios store_ratios(const std::vector<const server::CapsuleServer*>& servers,
                         double user_bytes) {
  double flushes = 0, entries = 0, stored = 0;
  for (const server::CapsuleServer* srv : servers) {
    for (const Name& cap : srv->storage().hosted()) {
      const auto* cs = srv->storage().find(cap);
      flushes += static_cast<double>(cs->log().sync_count());
      entries += static_cast<double>(cs->log().entry_count());
      stored += static_cast<double>(cs->log().payload_bytes());
    }
  }
  return StoreRatios{entries > 0 ? flushes / entries : 0, stored / user_bytes};
}

double verify_cache_hit_ratio(const std::vector<const router::Router*>& routers) {
  double hits = 0, misses = 0;
  for (const router::Router* r : routers) {
    hits += static_cast<double>(r->verify_cache_hits());
    misses += static_cast<double>(r->verify_cache_misses());
  }
  return hits + misses > 0 ? hits / (hits + misses) : 0;
}

// ---- per-layer call probes ---------------------------------------------------

namespace {

/// Median wall time per call of `fn` over `reps` calls, microseconds.
template <typename Fn>
double time_us(int reps, Fn&& fn) {
  std::vector<double> us;
  us.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    const std::int64_t t0 = wall_ns();
    fn(i);
    us.push_back(static_cast<double>(wall_ns() - t0) / 1e3);
  }
  return median(std::move(us));
}

}  // namespace

void probe_layers(const std::vector<Bytes>& payloads, std::uint64_t seed,
                  const std::string& scratch_tag, Report& r) {
  Rng rng(seed ^ 0x70726f6265ULL);
  const auto key = crypto::PrivateKey::generate(rng);
  const auto peer = crypto::PrivateKey::generate(rng);
  const std::size_t n = payloads.size();
  const int reps = static_cast<int>(std::min<std::size_t>(n, 64));
  auto payload = [&](int i) -> const Bytes& {
    return payloads[static_cast<std::size_t>(i) % n];
  };

  std::vector<crypto::Signature> sigs;
  r.layer["crypto.sign_us"] = {time_us(reps, [&](int i) {
                                 sigs.push_back(key.sign(payload(i)));
                               }),
                               "us"};
  r.layer["crypto.verify_us"] = {
      time_us(reps,
              [&](int i) {
                if (!key.public_key().verify(payload(i), sigs[static_cast<std::size_t>(i)])) {
                  r.wrong("probe: signature did not verify");
                }
              }),
      "us"};
  r.layer["crypto.ecdh_us"] = {
      time_us(16, [&](int) { (void)crypto::ecdh_shared_key(key, peer.public_key()); }),
      "us"};
  const Bytes mac_key = rng.next_bytes(32);
  r.layer["crypto.hmac_us"] = {
      time_us(reps, [&](int i) { (void)crypto::hmac_sha256(mac_key, payload(i)); }), "us"};
  {
    std::size_t bytes = 0;
    const std::int64_t t0 = wall_ns();
    for (int i = 0; i < reps; ++i) {
      (void)crypto::sha256(payload(i));
      bytes += payload(i).size();
    }
    const double s = static_cast<double>(wall_ns() - t0) / 1e9;
    r.layer["crypto.sha256_MBps"] = {static_cast<double>(bytes) / (1 << 20) / s, "MiB/s"};
  }

  // Capsule: a chain capsule holding the workload's payloads as records.
  auto metadata = capsule::Metadata::create(key, peer.public_key(),
                                            capsule::WriterMode::kStrictSingleWriter,
                                            "probe", 0, {{"hash_strategy", "chain"}});
  if (!metadata.ok()) {
    r.wrong("probe: metadata");
    return;
  }
  capsule::Writer writer(*metadata, peer, capsule::strategy_from_id("chain"));
  std::vector<capsule::Record> records;
  for (int i = 0; i < reps; ++i) records.push_back(writer.append(payload(i), i + 1));
  capsule::CapsuleState state(*metadata);
  r.layer["capsule.ingest_us"] = {
      time_us(reps,
              [&](int i) {
                if (!state.ingest(records[static_cast<std::size_t>(i)]).ok()) {
                  r.wrong("probe: ingest rejected a valid record");
                }
              }),
      "us"};
  const capsule::Heartbeat hb = writer.heartbeat();
  const auto tip = static_cast<std::uint64_t>(reps);
  capsule::RangeProof proof;
  r.layer["capsule.build_proof_us"] = {
      time_us(8,
              [&](int) {
                auto p = capsule::build_range_proof(state, hb, tip, tip);
                if (!p.ok()) {
                  r.wrong("probe: range proof");
                } else {
                  proof = std::move(*p);
                }
              }),
      "us"};
  r.layer["capsule.verify_proof_us"] = {
      time_us(8,
              [&](int) {
                if (!capsule::verify_range_proof(*metadata, hb, proof, tip, tip).ok()) {
                  r.wrong("probe: range proof did not verify");
                }
              }),
      "us"};

  // Wire: the AppendMsg that carries each record.
  std::vector<Bytes> encoded(static_cast<std::size_t>(reps));
  r.layer["wire.encode_us"] = {
      time_us(reps,
              [&](int i) {
                wire::AppendMsg m;
                m.capsule = metadata->name();
                m.record = records[static_cast<std::size_t>(i)];
                m.nonce = static_cast<std::uint64_t>(i);
                encoded[static_cast<std::size_t>(i)] = m.serialize();
              }),
      "us"};
  r.layer["wire.decode_us"] = {
      time_us(reps,
              [&](int i) {
                auto m = wire::AppendMsg::deserialize(encoded[static_cast<std::size_t>(i)]);
                if (!m.ok() || !(m->record == records[static_cast<std::size_t>(i)])) {
                  r.wrong("probe: AppendMsg round trip");
                }
              }),
      "us"};

  // Store: LogStore append and sync of the serialized records.
  const auto dir = std::filesystem::temp_directory_path() / ("gdpbench-probe-" + scratch_tag);
  std::filesystem::remove_all(dir);
  {
    auto log = store::LogStore::open(dir);
    if (!log.ok()) {
      r.wrong("probe: LogStore open");
      return;
    }
    std::vector<Bytes> rec_bytes;
    for (const auto& rec : records) rec_bytes.push_back(rec.serialize());
    r.layer["store.append_us"] = {
        time_us(reps,
                [&](int i) {
                  if (!log->append(rec_bytes[static_cast<std::size_t>(i)]).ok()) {
                    r.wrong("probe: LogStore append");
                  }
                }),
        "us"};
    std::vector<double> sync_us;
    for (int i = 0; i < reps; ++i) {
      (void)log->append(rec_bytes[static_cast<std::size_t>(i)]);
      const std::int64_t t0 = wall_ns();
      if (!log->sync().ok()) r.wrong("probe: LogStore sync");
      sync_us.push_back(static_cast<double>(wall_ns() - t0) / 1e3);
    }
    r.layer["store.sync_us"] = {median(std::move(sync_us)), "us"};
  }
  std::filesystem::remove_all(dir);
}

}  // namespace gdpbench
