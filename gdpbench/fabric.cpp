// fabric_forward: the Fig. 6 setup with a second router hop.
//
// 32 raw sources -> ingress router -> egress router -> 32 sink endpoints,
// over zero-latency unbounded links, so the wall clock measures the
// simulated Router path alone (PduView TTL patch, FIB snapshot lookup,
// Network::transmit, the event loop).  The ingress learns the sinks' routes
// from the domain's GLookupService on first use.  Batches of 64 B and
// 8 KiB kBenchData PDUs alternate so both sizes see the same host drift.
// The traced run also measures the sharded data plane's layer (shard.cpp).
#include <cstring>

#include "bench.hpp"
#include "common/buffer.hpp"
#include "harness/scenario.hpp"
#include "router/endpoint.hpp"

namespace gdpbench {

using namespace gdp;

namespace {

constexpr int kFlows = 32;
constexpr std::uint64_t kBatchPdus = 16384;
constexpr int kPairsPerRound = 16;
constexpr int kTracedPairs = 2;
constexpr std::size_t kSmall = 64;
constexpr std::size_t kLarge = 8192;
const net::LinkParams kInfinite{Duration{0}, 1e15, 0.0};

class Sink final : public router::Endpoint {
 public:
  using Endpoint::Endpoint;
  std::uint64_t received = 0;
  std::uint64_t wrong = 0;
  const Bytes* expect = nullptr;  ///< payload of the batch in flight

 protected:
  void handle_pdu(const Name&, const wire::Pdu& pdu) override { check(pdu.payload); }
  void handle_pdu_view(const Name&, wire::PduView view) override { check(view.payload()); }

 private:
  void check(BytesView payload) {
    ++received;
    if (expect == nullptr || payload.size() != expect->size() ||
        std::memcmp(payload.data(), expect->data(), 8) != 0) {
      ++wrong;
    }
  }
};

struct NullHandler final : net::PduHandler {
  void on_pdu(const Name&, const wire::Pdu&) override {}
};

Name source_name(int i) {
  Bytes raw(32, 0);
  raw[0] = 0xEE;
  raw[1] = static_cast<std::uint8_t>(i);
  return *Name::from_bytes(raw);
}

class Fabric {
 public:
  Fabric(const Config& cfg, Report& r) : r_(r), s_(cfg.seed, "fabric") {
    const std::int64_t t0 = wall_ns();
    auto* domain = s_.add_domain("fabric", nullptr);
    ingress_ = s_.add_router("ingress", domain);
    egress_ = s_.add_router("egress", domain);
    domain_ = domain;
    s_.link_routers(ingress_, egress_, kInfinite);
    s_.net().trace().set_enabled(false);
    Rng rng(cfg.seed ^ 0xfab1cULL);
    for (int i = 0; i < kFlows; ++i) {
      auto key = crypto::PrivateKey::generate(rng);
      sinks_.push_back(std::make_unique<Sink>(s_.net(), key, trust::Role::kClient,
                                              "sink-" + std::to_string(i)));
      s_.net().connect(sinks_.back()->name(), egress_->name(), kInfinite);
      sinks_.back()->advertise(egress_->name(), {});
      const Name src = source_name(i);
      s_.net().attach(src, &null_);
      s_.net().connect(src, ingress_->name(), kInfinite);
      sources_.push_back(src);
    }
    const std::int64_t hs0 = wall_ns();
    s_.settle();
    handshake_ms = static_cast<double>(wall_ns() - hs0) / 1e6 / kFlows;
    Rng data(cfg.seed ^ 0xda7aULL);
    small_ = data.next_bytes(kSmall);
    large_ = data.next_bytes(kLarge);
    // Warm-up: one batch per size fills the ingress FIB from the
    // GLookupService and the segment pool.
    blast(small_, kBatchPdus, nullptr);
    blast(large_, kBatchPdus, nullptr);
    setup_s = static_cast<double>(wall_ns() - t0) / 1e9;
  }

  /// Sends `count` PDUs (32 flows in lockstep) and forwards them to the
  /// sinks.  Returns the delivery rate.
  double blast(const Bytes& payload, std::uint64_t count, Tracer* tracer) {
    for (auto& sink : sinks_) sink->expect = &payload;
    std::uint64_t before = delivered();
    const std::int64_t w0 = wall_ns();
    std::uint64_t sent = 0;
    while (sent < count) {
      for (int i = 0; i < kFlows && sent < count; ++i, ++sent) {
        const auto f = static_cast<std::size_t>(i);
        wire::Pdu pdu;
        pdu.type = wire::MsgType::kBenchData;
        pdu.dst = sinks_[f]->name();
        pdu.src = sources_[f];
        pdu.ttl = 8;
        pdu.payload = payload;
        const std::uint32_t span =
            tracer ? tracer->begin(SpanKind::kIssue, sources_[f], "send") : 0;
        s_.net().send(sources_[f], ingress_->name(), std::move(pdu));
        if (tracer) tracer->end(span);
      }
      s_.sim().run();
    }
    const double secs = static_cast<double>(wall_ns() - w0) / 1e9;
    const std::uint64_t got = delivered() - before;
    r_.attempted += count;
    if (got != count) r_.wrong("fabric: " + std::to_string(count - got) + " PDUs lost", count - got);
    return static_cast<double>(got) / secs;
  }

  std::uint64_t delivered() const {
    std::uint64_t n = 0;
    for (const auto& s : sinks_) n += s->received;
    return n;
  }
  std::uint64_t wrong() const {
    std::uint64_t n = 0;
    for (const auto& s : sinks_) n += s->wrong;
    return n;
  }

  std::unique_ptr<Tracer> make_tracer() {
    auto t = std::make_unique<Tracer>(s_.net());
    t->tap(domain_->name(), NodeKind::kGlookup, domain_);
    t->tap(ingress_->name(), NodeKind::kRouter, ingress_);
    t->tap(egress_->name(), NodeKind::kRouter, egress_);
    for (auto& sink : sinks_) t->tap(sink->name(), NodeKind::kSink, sink.get());
    for (const Name& src : sources_) t->add_node(src, NodeKind::kSource);
    return t;
  }

  harness::Scenario& scenario() { return s_; }
  router::Router& ingress() { return *ingress_; }
  router::Router& egress() { return *egress_; }
  const Bytes& small() const { return small_; }
  const Bytes& large() const { return large_; }

  double setup_s = 0;
  double handshake_ms = 0;

 private:
  Report& r_;
  harness::Scenario s_;
  router::GLookupService* domain_ = nullptr;
  router::Router* ingress_ = nullptr;
  router::Router* egress_ = nullptr;
  NullHandler null_;
  std::vector<std::unique_ptr<Sink>> sinks_;
  std::vector<Name> sources_;
  Bytes small_, large_;
};

}  // namespace

void run_fabric_forward(const Config& cfg, Report& r) {
  const std::int64_t deadline = wall_ns() + static_cast<std::int64_t>(cfg.seconds * 1e9);
  std::vector<double> setup_s, small_rates, large_rates, traced_small;
  bool traced_done = false;
  int rounds = 0;
  for (; rounds < 2 || wall_ns() < deadline; ++rounds) {
    if (rounds == 1) r.e2e["peak_rss_mb"] = {peak_rss_mib(), "MiB"};
    Fabric f(cfg, r);
    setup_s.push_back(f.setup_s);
    const bool traced = cfg.trace && rounds % 2 == 1 && !traced_done;
    if (!traced) {
      const auto buf0 = BufferStats::snapshot();
      const StackCounts counts0 = StackCounts::read(f.scenario().net().metrics());
      const std::uint64_t pdus0 = f.scenario().net().pdus_delivered();
      const std::uint64_t bytes0 = f.scenario().net().bytes_delivered();
      const std::uint64_t events0 = f.scenario().sim().events_processed();
      for (int p = 0; p < kPairsPerRound; ++p) {
        small_rates.push_back(f.blast(f.small(), kBatchPdus, nullptr));
        large_rates.push_back(f.blast(f.large(), kBatchPdus, nullptr));
      }
      const auto buf1 = BufferStats::snapshot();
      const double sent = 2.0 * kPairsPerRound * static_cast<double>(kBatchPdus);
      // One wire frame copied per PDU: the origin serialize, never per hop.
      const double wire_bytes =
          static_cast<double>(kPairsPerRound * kBatchPdus) *
          static_cast<double>(kSmall + kLarge + 2 * wire::kPduOverhead);
      const double copied = static_cast<double>(buf1.bytes_copied - buf0.bytes_copied);
      if (copied > wire_bytes * 1.0001) r.wrong("fabric: more than one frame copy per PDU");
      if (f.wrong() != 0) r.wrong("fabric: sinks received wrong payloads");
      if (rounds == 0 && cfg.trace) {
        r.layer["wire.copied_bytes_per_pdu"] = {copied / sent, "B"};
        r.layer["wire.segment_allocs"] = {
            static_cast<double>(buf1.segment_allocs - buf0.segment_allocs), "count"};
        r.layer["net.pdus_per_op"] = {
            static_cast<double>(f.scenario().net().pdus_delivered() - pdus0) / sent, "count"};
        r.layer["net.bytes_per_op"] = {
            static_cast<double>(f.scenario().net().bytes_delivered() - bytes0) / sent, "B"};
        r.layer["net.max_pdu_bytes"] = {
            static_cast<double>(f.scenario().net().metrics().histogram("net.pdu.wire_bytes").max()),
            "B"};
        r.layer["sim.events_per_op"] = {
            static_cast<double>(f.scenario().sim().events_processed() - events0) / sent, "count"};
        (StackCounts::read(f.scenario().net().metrics()) - counts0).fill(sent, r);
        r.layer["trust.handshake_ms"] = {f.handshake_ms, "ms"};
        r.layer["trust.verify_cache_hit_ratio"] = {
            verify_cache_hit_ratio({&f.ingress(), &f.egress()}), "ratio"};
      }
      continue;
    }
    traced_done = true;
    auto tracer = f.make_tracer();
    const std::size_t first = tracer->spans().size();
    const std::int64_t w0 = wall_ns();
    for (int p = 0; p < kTracedPairs; ++p) {
      traced_small.push_back(f.blast(f.small(), kBatchPdus, tracer.get()));
      f.blast(f.large(), kBatchPdus, tracer.get());
    }
    const double wall_us = static_cast<double>(wall_ns() - w0) / 1e3;
    const double ops = 2.0 * kTracedPairs * static_cast<double>(kBatchPdus);
    // Every PDU is sent from a source's issue span; none is a timer's.
    const Tracer::CauseStats causes = tracer->resolve_causes();
    const std::size_t uncaused = causes.uncaused + causes.background_roots;
    if (uncaused != 0) {
      r.wrong("fabric: " + std::to_string(uncaused) + " traced deliveries have no cause");
    }
    const LayerTotals tot = layer_totals(*tracer, first, tracer->spans().size());
    r.layer["client.issue_us"] = {tot.per_span_ns("client.issue") / 1e3, "us"};
    r.layer["router.fwd_ns"] = {tot.per_span_ns("router"), "ns"};
    r.layer["trace.unattributed_us_per_op"] = {(wall_us - tot.total_self_ns / 1e3) / ops, "us"};
    r.layer["trace.spans_per_op"] = {static_cast<double>(tracer->spans().size() - first) / ops,
                                     "count"};
    r.layer["trace.uncaused_spans"] = {static_cast<double>(uncaused), "count"};
    for (const auto& [key, ns] : tot.self_ns) r.detail["self_ns_per_pdu." + key] = {ns / ops, "ns"};
  }
  const double small = fast_rate(small_rates);
  const double large = fast_rate(large_rates);
  r.e2e["setup_s"] = {fast_duration(setup_s), "s"};
  r.detail["setup_s_median"] = {median(setup_s), "s"};
  r.e2e["primary_ops_per_s"] = {small, "ops/s"};
  r.e2e["secondary_ops_per_s"] = {large, "ops/s"};
  r.detail["fwd_pdus_per_s"] = {small, "PDU/s"};
  r.detail["fwd_gbps"] = {large * static_cast<double>(kLarge + wire::kPduOverhead) * 8 / 1e9,
                          "Gbit/s"};
  r.stamp["rounds"] = rounds;
  r.stamp["batches_per_size"] = static_cast<double>(small_rates.size());
  r.stamp["pdus_per_batch"] = static_cast<double>(kBatchPdus);
  if (!cfg.trace) return;
  if (!traced_small.empty()) {
    r.layer["trace.overhead_pct"] = {(small - fast_rate(traced_small)) / small * 100.0, "%"};
  }
  std::vector<Bytes> payloads;
  Rng data(cfg.seed ^ 0xda7aULL);
  for (int i = 0; i < 32; ++i) payloads.push_back(data.next_bytes(i % 2 == 0 ? kSmall : kLarge));
  probe_layers(payloads, cfg.seed, "fabric", r);
  data_plane_layers(cfg, r);
}

}  // namespace gdpbench
