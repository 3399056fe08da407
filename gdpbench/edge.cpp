// edge_small_rw: per-record edge traffic with durable acks.
//
// Four clients on access router `ra`, a 1 ms / 1 Gbit/s edge link to
// backend router `rb`, two replica servers on `rb` (own storage roots,
// anti-entropy on) hosting eight strict-single-writer chain capsules.
// Each client runs a closed loop alternating a 1 KiB append with
// required_acks = 2 and a verified read_latest of the same capsule.
// After the loop a replica's store is reopened to time restart.
//
// Every round builds the deployment afresh from the same seed and runs a
// fixed number of ops, so rounds must agree exactly on every simulated
// latency and registry count (checked), and the store reopened at the
// end always holds the same records.  Set-up ends with warm-up ops and a
// drain to an idle network, so every measured op (and, in a traced round,
// every PDU the trace sees) is issued after set-up.
#include <algorithm>
#include <cmath>
#include <filesystem>

#include "bench.hpp"
#include "common/buffer.hpp"
#include "harness/scenario.hpp"
#include "store/capsule_store.hpp"

namespace gdpbench {

using namespace gdp;

namespace {

constexpr int kClients = 4;
constexpr int kCapsules = 8;
constexpr std::size_t kPayload = 1024;
constexpr std::uint32_t kAcks = 2;
constexpr int kBatch = 64;             ///< ops per timed batch
constexpr int kBatchesPerRound = 24;
constexpr int kWarmOps = 48;           ///< sessions, FIB and caches warm up
constexpr int kReopens = 3;
const net::LinkParams kAccess{from_micros(100), 1e9, 0};
const net::LinkParams kEdge{from_millis(1), 1e9, 0};
const net::LinkParams kServerLink{from_micros(50), 1e9, 0};

struct ClientState {
  client::GdpClient* client = nullptr;
  int next_capsule = 0;  ///< index into the client's two capsules
  bool reading = false;  ///< next op is the read of `capsule`
  int capsule = 0;
  Bytes last_payload;
  Name last_hash;
  std::uint64_t last_seqno = 0;
  TimePoint issued{};
  std::uint32_t root_span = 0;
};

/// A replica's storage root, removed once the servers using it are gone.
struct StorageRoot {
  std::filesystem::path path;
  ~StorageRoot() {
    if (!path.empty()) std::filesystem::remove_all(path);
  }
};

struct OpSample {
  bool read;
  double sim_ms;
  std::uint32_t root_span;
  std::uint32_t last_span;
};

struct RoundResult {
  double setup_s = 0;
  std::vector<double> batch_rates;  ///< ops/s per batch
  std::vector<double> reopen_rates; ///< records/s per reopen
  std::vector<OpSample> ops;        ///< measured ops, in completion order
  std::string registry;             ///< registry counts after the loop
  double loop_wall_s = 0;
  std::uint64_t measured_ops = 0;
  std::uint64_t records = 0;
  std::uint64_t sim_events = 0;
  std::uint64_t pdus = 0, bytes = 0, max_pdu = 0;
  std::uint64_t copied = 0, allocs = 0;
  double handshake_ms = 0;
  std::size_t first_loop_span = 0;
  std::uint64_t attempted = 0;
  StackCounts counts;               ///< registry deltas over the loop
  StoreRatios store;
  double verify_cache_hit_ratio = 0;
};

class EdgeRound {
 public:
  EdgeRound(const Config& cfg, Report& r, int round, bool traced)
      : cfg_(cfg), r_(r), round_(round), traced_(traced), s_(cfg.seed, "edge") {}

  RoundResult run();
  Tracer* tracer() { return tracer_.get(); }

 private:
  void build();
  void start_loops();
  void drive(int until_completed);
  void issue(int i);
  void complete(int i, bool ok, const std::string& why);
  void install_tracer();

  const Config& cfg_;
  Report& r_;
  int round_;
  bool traced_;
  harness::Scenario s_;
  std::vector<crypto::PrivateKey> server_keys_;
  StorageRoot roots_[2];  ///< declared before servers_, so outlives them
  std::vector<std::unique_ptr<server::CapsuleServer>> servers_;
  router::GLookupService* domain_ = nullptr;
  router::Router* ra_ = nullptr;
  router::Router* rb_ = nullptr;
  std::vector<harness::CapsuleSetup> caps_;
  std::vector<capsule::Writer> writers_;
  std::vector<ClientState> clients_;
  std::unique_ptr<Tracer> tracer_;
  Rng payload_rng_{1};

  int target_ops_ = 0;
  int issued_ops_ = 0;
  int appends_ = 0;
  int completed_ops_ = 0;
  std::int64_t batch_mark_ = 0;
  RoundResult out_;
};

void EdgeRound::build() {
  domain_ = s_.add_domain("edge", nullptr);
  ra_ = s_.add_router("ra", domain_);
  rb_ = s_.add_router("rb", domain_);
  s_.link_routers(ra_, rb_, kEdge);
  Rng key_rng(cfg_.seed ^ 0x5e7e5ULL);
  for (int k = 0; k < 2; ++k) {
    server_keys_.push_back(crypto::PrivateKey::generate(key_rng));
  }
  for (int k = 0; k < 2; ++k) {
    server::CapsuleServer::Options opts;
    roots_[k].path = std::filesystem::temp_directory_path() /
                     ("gdpbench-edge-" + std::to_string(cfg_.seed) + "-" +
                      std::to_string(round_) + "-replica" + std::to_string(k));
    std::filesystem::remove_all(roots_[k].path);
    opts.storage_root = roots_[k].path;
    servers_.push_back(std::make_unique<server::CapsuleServer>(
        s_.net(), server_keys_[static_cast<std::size_t>(k)], "replica" + std::to_string(k),
        opts));
    s_.net().connect(servers_.back()->name(), rb_->name(), kServerLink);
  }
  for (int i = 0; i < kClients; ++i) {
    ClientState c;
    c.client = s_.add_client("client" + std::to_string(i), ra_, kAccess);
    clients_.push_back(std::move(c));
  }
  const std::int64_t hs0 = wall_ns();
  s_.attach_all();
  for (auto& srv : servers_) srv->advertise_to(rb_->name());
  s_.settle();
  out_.handshake_ms = static_cast<double>(wall_ns() - hs0) / 1e6 / (kClients + 2);

  std::vector<server::CapsuleServer*> replicas;
  for (auto& srv : servers_) replicas.push_back(srv.get());
  Rng cap_rng(cfg_.seed ^ 0xca9ULL);
  for (int c = 0; c < kCapsules; ++c) {
    caps_.push_back(harness::make_capsule(cap_rng, "edge-cap" + std::to_string(c)));
    if (!harness::place_capsule(s_, caps_.back(), *clients_[0].client, replicas).ok()) {
      r_.wrong("edge: capsule placement failed");
    }
    writers_.push_back(caps_.back().make_writer());
  }
  for (auto& srv : servers_) srv->start_anti_entropy();
}

void EdgeRound::install_tracer() {
  tracer_ = std::make_unique<Tracer>(s_.net());
  tracer_->tap(domain_->name(), NodeKind::kGlookup, domain_);
  tracer_->tap(ra_->name(), NodeKind::kRouter, ra_);
  tracer_->tap(rb_->name(), NodeKind::kRouter, rb_);
  for (auto& srv : servers_) tracer_->tap(srv->name(), NodeKind::kServer, srv.get());
  for (auto& c : clients_) tracer_->tap(c.client->name(), NodeKind::kClient, c.client);
  tracer_->set_link(ra_->name(), rb_->name(), kEdge);
  for (auto& srv : servers_) tracer_->set_link(srv->name(), rb_->name(), kServerLink);
  for (auto& c : clients_) tracer_->set_link(c.client->name(), ra_->name(), kAccess);
  tracer_->set_link(ra_->name(), domain_->name(), net::LinkParams::lan());
  tracer_->set_link(rb_->name(), domain_->name(), net::LinkParams::lan());
}

void EdgeRound::issue(int i) {
  if (issued_ops_ >= target_ops_) return;
  ++issued_ops_;
  ClientState& c = clients_[static_cast<std::size_t>(i)];
  const std::uint32_t span =
      tracer_ ? tracer_->begin(SpanKind::kIssue, c.client->name(),
                               c.reading ? "read" : "append")
              : 0;
  c.issued = s_.sim().now();
  c.root_span = span;
  if (c.reading) {
    auto op = c.client->read_latest(caps_[static_cast<std::size_t>(c.capsule)].metadata);
    op->on_resolved = [this, i](const Result<client::ReadOutcome>& res) {
      ClientState& cs = clients_[static_cast<std::size_t>(i)];
      if (!res.ok()) return complete(i, false, "read failed: " + res.error().message);
      if (res->records.empty() || res->records.back().payload != cs.last_payload ||
          res->records.back().hash() != cs.last_hash) {
        return complete(i, false, "read did not return the client's last append");
      }
      complete(i, true, "");
    };
  } else {
    c.capsule = 2 * i + c.next_capsule;
    c.next_capsule ^= 1;
    ++appends_;
    capsule::Writer& w = writers_[static_cast<std::size_t>(c.capsule)];
    c.last_payload = payload_rng_.next_bytes(kPayload);
    auto op = c.client->append(w, c.last_payload, kAcks);
    c.last_hash = w.tip_hash();
    c.last_seqno = w.next_seqno() - 1;
    op->on_resolved = [this, i](const Result<client::AppendOutcome>& res) {
      ClientState& cs = clients_[static_cast<std::size_t>(i)];
      if (!res.ok()) return complete(i, false, "append failed: " + res.error().message);
      if (res->record_hash != cs.last_hash || res->seqno != cs.last_seqno ||
          res->acks < kAcks) {
        return complete(i, false, "ack does not attest the record sent");
      }
      complete(i, true, "");
    };
  }
  if (tracer_) tracer_->end(span);
}

void EdgeRound::complete(int i, bool ok, const std::string& why) {
  ClientState& c = clients_[static_cast<std::size_t>(i)];
  ++completed_ops_;
  ++out_.attempted;
  if (!ok) r_.wrong("edge: " + why);
  // Stamped at resolution, inside the event that delivered the response.
  const double sim_ms = static_cast<double>((s_.sim().now() - c.issued).count()) / 1e6;
  if (completed_ops_ > kWarmOps) {
    out_.ops.push_back(
        OpSample{c.reading, sim_ms, c.root_span, tracer_ ? tracer_->current() : 0});
    const int measured = completed_ops_ - kWarmOps;
    if (measured % kBatch == 0) {
      const std::int64_t now = wall_ns();
      out_.batch_rates.push_back(kBatch / (static_cast<double>(now - batch_mark_) / 1e9));
      batch_mark_ = now;
    }
  }
  c.reading = !c.reading;
  s_.sim().schedule(Duration{0}, [this, i] { issue(i); });
}

void EdgeRound::start_loops() {
  for (int i = 0; i < kClients; ++i) {
    // Staggered starts keep the four loops from colliding on shared links.
    s_.sim().schedule(from_micros(600 * i), [this, i] { issue(i); });
  }
}

void EdgeRound::drive(int until_completed) {
  while (completed_ops_ < until_completed) {
    s_.sim().run_until(s_.sim().now() + from_millis(20));
    if (s_.sim().idle()) break;
  }
}

RoundResult EdgeRound::run() {
  const std::int64_t t0 = wall_ns();
  build();
  payload_rng_ = Rng(cfg_.seed ^ 0xda7aULL);
  // Warm-up: sessions, FIB and caches.  The loops stop issuing at
  // kWarmOps; then the network drains and the measured loops restart from
  // idle, so no measured op or traced PDU predates set-up.
  target_ops_ = kWarmOps;
  start_loops();
  drive(kWarmOps);
  if (!drain_network(s_.net())) r_.wrong("edge: the network did not drain after warm-up");
  if (traced_) install_tracer();
  out_.setup_s = static_cast<double>(wall_ns() - t0) / 1e9;

  target_ops_ = kWarmOps + kBatch * kBatchesPerRound;
  start_loops();
  const auto before = BufferStats::snapshot();
  const std::uint64_t events0 = s_.sim().events_processed();
  const std::uint64_t pdus0 = s_.net().pdus_delivered();
  const std::uint64_t bytes0 = s_.net().bytes_delivered();
  const StackCounts counts0 = StackCounts::read(s_.net().metrics());
  out_.first_loop_span = tracer_ ? tracer_->spans().size() : 0;
  const std::int64_t loop0 = wall_ns();
  batch_mark_ = loop0;
  drive(target_ops_);
  out_.loop_wall_s = static_cast<double>(wall_ns() - loop0) / 1e9;
  if (completed_ops_ < target_ops_) r_.wrong("edge: closed loop stalled");
  out_.measured_ops = static_cast<std::uint64_t>(completed_ops_ - kWarmOps);
  out_.sim_events = s_.sim().events_processed() - events0;
  out_.pdus = s_.net().pdus_delivered() - pdus0;
  out_.bytes = s_.net().bytes_delivered() - bytes0;
  out_.max_pdu = s_.net().metrics().histogram("net.pdu.wire_bytes").max();
  const auto after = BufferStats::snapshot();
  out_.copied = after.bytes_copied - before.bytes_copied;
  out_.allocs = after.segment_allocs - before.segment_allocs;
  out_.registry = s_.stats_json();
  out_.counts = StackCounts::read(s_.net().metrics()) - counts0;
  out_.store = store_ratios({servers_[0].get(), servers_[1].get()},
                            static_cast<double>(kPayload) * static_cast<double>(appends_));
  out_.verify_cache_hit_ratio = verify_cache_hit_ratio({ra_, rb_});

  // Restart: reopen replica 1's store (it holds every record) and check it
  // recovered exactly what the live server holds.
  const auto& live = servers_[1]->storage();
  for (int k = 0; k < kReopens; ++k) {
    const std::int64_t w0 = wall_ns();
    auto reopened = store::ServerStore::open(roots_[1].path);
    const double secs = static_cast<double>(wall_ns() - w0) / 1e9;
    if (!reopened.ok()) {
      r_.wrong("edge: replica store did not reopen");
      break;
    }
    std::uint64_t records = 0;
    for (const Name& cap : live.hosted()) {
      const auto* a = live.find(cap);
      const auto* b = reopened->find(cap);
      if (b == nullptr || a->log().entry_count() != b->log().entry_count() ||
          a->state().tip_seqno() != b->state().tip_seqno()) {
        r_.wrong("edge: reopened store differs from the live replica");
        continue;
      }
      records += b->log().entry_count();
    }
    out_.records = records;
    out_.reopen_rates.push_back(static_cast<double>(records) / secs);
  }
  for (auto& srv : servers_) srv->stop_anti_entropy();
  return std::move(out_);
}

void fill_traced(const RoundResult& rr, Tracer& t, Report& r) {
  // The tracer went in on an idle network, so every delivery it saw has a
  // sending span or is a timer's background root.
  const Tracer::CauseStats causes = t.resolve_causes();
  if (causes.uncaused != 0) {
    r.wrong("edge: " + std::to_string(causes.uncaused) + " traced deliveries have no cause");
  }
  const LayerTotals tot = layer_totals(t, rr.first_loop_span, t.spans().size());
  const double ops = static_cast<double>(rr.measured_ops);
  r.layer["client.issue_us"] = {tot.per_op_ns("client.issue", ops) / 1e3, "us"};
  r.layer["client.complete_us"] = {tot.per_span_ns("client.complete") / 1e3, "us"};
  r.layer["server.append_us"] = {tot.per_span_ns("server.append") / 1e3, "us"};
  r.layer["server.read_us"] = {tot.per_span_ns("server.read") / 1e3, "us"};
  r.layer["server.replica_us"] = {tot.per_span_ns("server.replica") / 1e3, "us"};
  r.layer["router.fwd_ns"] = {tot.per_span_ns("router"), "ns"};
  const double wall_per_op_us = rr.loop_wall_s * 1e6 / ops;
  r.layer["trace.unattributed_us_per_op"] = {wall_per_op_us - tot.total_self_ns / ops / 1e3,
                                             "us"};
  r.layer["trace.spans_per_op"] = {
      static_cast<double>(t.spans().size() - rr.first_loop_span) / ops, "count"};
  r.layer["trace.uncaused_spans"] = {static_cast<double>(causes.uncaused), "count"};
  r.detail["trace_background_roots"] = {static_cast<double>(causes.background_roots), "count"};
  r.detail["traced_wall_us_per_op"] = {wall_per_op_us, "us"};
  for (const auto& [key, ns] : tot.self_ns) r.detail["self_us_per_op." + key] = {ns / ops / 1e3, "us"};

  // Link terms along each op's blocking path, and the analytic check: the
  // median read crossed idle links, so its simulated latency must equal
  // the propagation plus serialization of its hops.  Every measured op was
  // issued under the tracer, so every path must lead back to its issue.
  double ser = 0, prop = 0, queue = 0;
  std::size_t resolved = 0;
  std::vector<std::pair<double, Tracer::HopTerms>> reads;
  for (const OpSample& op : rr.ops) {
    const Tracer::HopTerms h = t.blocking_path(op.last_span, op.root_span);
    if (!h.reached_root) continue;
    ++resolved;
    ser += h.serialization_ns;
    prop += h.propagation_ns;
    queue += h.queueing_ns;
    if (op.read) reads.emplace_back(op.sim_ms, h);
  }
  r.detail["blocking_paths_resolved"] = {static_cast<double>(resolved), "count"};
  if (resolved != rr.ops.size() || reads.empty()) {
    r.wrong("edge: " + std::to_string(rr.ops.size() - resolved) + " of " +
            std::to_string(rr.ops.size()) + " ops' blocking paths did not reach their issue");
    return;
  }
  r.layer["net.serialization_ms"] = {ser / static_cast<double>(resolved) / 1e6, "ms"};
  r.layer["net.propagation_ms"] = {prop / static_cast<double>(resolved) / 1e6, "ms"};
  r.layer["net.queueing_ms"] = {queue / static_cast<double>(resolved) / 1e6, "ms"};
  std::sort(reads.begin(), reads.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  const auto& [p50_ms, h] = reads[reads.size() / 2];
  const double analytic_ms = (h.propagation_ns + h.serialization_ns) / 1e6;
  r.detail["read_sim_ms_p50_analytic"] = {analytic_ms, "ms"};
  if (std::abs(p50_ms - analytic_ms) > 1e-6 * static_cast<double>(h.hops)) {
    r.wrong("edge: median read latency " + std::to_string(p50_ms) +
            " ms != propagation + serialization " + std::to_string(analytic_ms) + " ms");
  }
}

}  // namespace

void run_edge_small_rw(const Config& cfg, Report& r) {
  const std::int64_t deadline = wall_ns() + static_cast<std::int64_t>(cfg.seconds * 1e9);
  std::vector<double> setup_s, rates, reopen_rates, traced_rates;
  std::string registry0;
  RoundResult base;
  bool traced_filled = false;
  int rounds = 0;
  // Traced runs alternate untraced and traced rounds: the untraced ones
  // give every count and the baseline for the tracing overhead.
  for (; rounds < 2 || wall_ns() < deadline; ++rounds) {
    const bool traced = cfg.trace && rounds % 2 == 1;
    EdgeRound round(cfg, r, rounds, traced);
    RoundResult rr = round.run();
    r.attempted += rr.attempted;
    if (rounds == 0) {
      registry0 = rr.registry;
    } else if (rr.registry != registry0) {
      r.wrong("edge: rounds with the same seed disagree on registry counts");
    }
    setup_s.push_back(rr.setup_s);
    if (traced) {
      traced_rates.insert(traced_rates.end(), rr.batch_rates.begin(), rr.batch_rates.end());
      if (!traced_filled) {
        fill_traced(rr, *round.tracer(), r);
        traced_filled = true;
      }
    } else {
      rates.insert(rates.end(), rr.batch_rates.begin(), rr.batch_rates.end());
      reopen_rates.insert(reopen_rates.end(), rr.reopen_rates.begin(), rr.reopen_rates.end());
    }
    if (rounds == 0) {
      // Later rounds repeat the same work, so the first round's peak is
      // the run's peak whatever the number of rounds.
      r.e2e["peak_rss_mb"] = {peak_rss_mib(), "MiB"};
      base = std::move(rr);
    }
  }

  std::vector<double> append_ms, read_ms;
  for (const OpSample& op : base.ops) (op.read ? read_ms : append_ms).push_back(op.sim_ms);
  const double ops_per_s = fast_rate(rates);
  const double reopen_rate = fast_rate(reopen_rates);
  r.e2e["setup_s"] = {fast_duration(setup_s), "s"};
  r.detail["setup_s_median"] = {median(setup_s), "s"};
  r.e2e["primary_ops_per_s"] = {ops_per_s, "ops/s"};
  r.e2e["secondary_ops_per_s"] = {reopen_rate, "ops/s"};
  r.detail["ops_per_s"] = {ops_per_s, "ops/s"};
  r.detail["restart_s"] = {static_cast<double>(base.records) / reopen_rate, "s"};
  r.detail["append_sim_ms_p50"] = {quantile(append_ms, 0.5), "ms"};
  r.detail["append_sim_ms_p99"] = {quantile(append_ms, 0.99), "ms"};
  r.detail["read_sim_ms_p50"] = {quantile(read_ms, 0.5), "ms"};
  r.detail["read_sim_ms_p99"] = {quantile(read_ms, 0.99), "ms"};
  r.stamp["rounds"] = rounds;
  r.stamp["batches"] = static_cast<double>(rates.size());
  r.stamp["ops_per_batch"] = kBatch;
  r.stamp["reopens"] = static_cast<double>(reopen_rates.size());
  r.stamp["records_per_reopen"] = static_cast<double>(base.records);
  if (!cfg.trace) return;

  const double ops = static_cast<double>(base.measured_ops);
  r.layer["sim.append_ms_p50"] = r.detail["append_sim_ms_p50"];
  r.layer["sim.append_ms_p99"] = r.detail["append_sim_ms_p99"];
  r.layer["sim.read_ms_p50"] = r.detail["read_sim_ms_p50"];
  r.layer["sim.read_ms_p99"] = r.detail["read_sim_ms_p99"];
  r.layer["net.pdus_per_op"] = {static_cast<double>(base.pdus) / ops, "count"};
  r.layer["net.bytes_per_op"] = {static_cast<double>(base.bytes) / ops, "B"};
  r.layer["net.max_pdu_bytes"] = {static_cast<double>(base.max_pdu), "B"};
  r.layer["sim.events_per_op"] = {static_cast<double>(base.sim_events) / ops, "count"};
  r.layer["wire.copied_bytes_per_pdu"] = {
      static_cast<double>(base.copied) / static_cast<double>(base.pdus), "B"};
  r.layer["wire.segment_allocs"] = {static_cast<double>(base.allocs), "count"};
  r.layer["store.flushes_per_append"] = {base.store.flushes_per_append, "ratio"};
  r.layer["store.bytes_per_user_byte"] = {base.store.bytes_per_user_byte, "ratio"};
  r.layer["store.reopen_us_per_record"] = {1e6 / reopen_rate, "us"};
  r.layer["trust.verify_cache_hit_ratio"] = {base.verify_cache_hit_ratio, "ratio"};
  r.layer["trust.handshake_ms"] = {base.handshake_ms, "ms"};
  base.counts.fill(ops, r);
  r.layer["trace.overhead_pct"] = {
      (ops_per_s - fast_rate(traced_rates)) / ops_per_s * 100.0, "%"};
  Rng payload_rng(cfg.seed ^ 0xda7aULL);
  std::vector<Bytes> payloads;
  for (int i = 0; i < 64; ++i) payloads.push_back(payload_rng.next_bytes(kPayload));
  probe_layers(payloads, cfg.seed, "edge", r);
}

}  // namespace gdpbench
