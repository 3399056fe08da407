// model_store: the Fig. 8 edge case through the filesystem CAAPI.
//
// Client on a 0.5 ms / 1 Gbit/s access link, 1 ms to the backend router,
// one server.  Each cycle builds that deployment, saves a fresh 28 MiB
// model through GdpFilesystem (256 KiB chunk appends plus a directory
// commit) and loads it back, verified byte for byte.
#include "bench.hpp"
#include "caapi/fs.hpp"
#include "common/buffer.hpp"
#include "harness/scenario.hpp"

namespace gdpbench {

using namespace gdp;

namespace {

constexpr std::size_t kModelBytes = 28u << 20;
constexpr std::size_t kChunkBytes = 256u << 10;
constexpr double kChunks = static_cast<double>(kModelBytes / kChunkBytes);
const net::LinkParams kAccess{from_micros(500), 1e9, 0};
const net::LinkParams kBackend{from_millis(1), 1e9, 0};

/// Notes the simulated time of the last PDU delivered to the client, so a
/// blocking filesystem call's latency is stamped when its final response
/// arrives rather than after await()'s 10 ms stepping.
class LastDelivery final : public net::PduHandler {
 public:
  LastDelivery(net::Simulator& sim, net::PduHandler* inner) : sim_(sim), inner_(inner) {}
  void on_pdu(const Name& from, const wire::Pdu& pdu) override { inner_->on_pdu(from, pdu); }
  void on_pdu_view(const Name& from, wire::PduView view) override {
    last = sim_.now();
    inner_->on_pdu_view(from, std::move(view));
  }
  void on_link_state(const Name& n, bool up) override { inner_->on_link_state(n, up); }
  TimePoint last{};

 private:
  net::Simulator& sim_;
  net::PduHandler* inner_;
};

struct Cycle {
  double setup_s = 0, save_wall_s = 0, load_wall_s = 0;
  double save_sim_s = 0, load_sim_s = 0;
  double handshake_ms = 0;
  std::uint64_t pdus = 0, bytes = 0, max_pdu = 0, events = 0, copied = 0, allocs = 0;
  StoreRatios store;
  StackCounts counts;
};

Cycle run_cycle(const Config& cfg, Report& r, int index, bool traced) {
  Cycle c;
  Rng data_rng(cfg.seed ^ (0x6d6f64656cULL + static_cast<std::uint64_t>(index)));
  const Bytes model = data_rng.next_bytes(kModelBytes);

  const std::int64_t t0 = wall_ns();
  harness::Scenario s(cfg.seed, "model");
  auto* global = s.add_domain("global", nullptr);
  auto* access = s.add_router("access-router", global);
  auto* backend = s.add_router("backend-router", global);
  s.link_routers(access, backend, kBackend);
  auto* server = s.add_server("capsule-server", backend);
  client::GdpClient::Options copts;
  copts.op_timeout = from_seconds(3600);
  auto* client = s.add_client("tf-client", access, kAccess, copts);
  const std::int64_t hs0 = wall_ns();
  s.attach_all();
  c.handshake_ms = static_cast<double>(wall_ns() - hs0) / 1e6 / 2;

  auto fs = caapi::GdpFilesystem::create(s, *client, {server}, "models");
  if (!fs.ok()) {
    r.wrong("model: filesystem create failed");
    return c;
  }
  if (!drain_network(s.net())) r.wrong("model: the network did not drain after set-up");

  std::unique_ptr<Tracer> tracer;
  LastDelivery last(s.sim(), client);
  if (traced) {
    tracer = std::make_unique<Tracer>(s.net());
    tracer->tap(global->name(), NodeKind::kGlookup, global);
    tracer->tap(access->name(), NodeKind::kRouter, access);
    tracer->tap(backend->name(), NodeKind::kRouter, backend);
    tracer->tap(server->name(), NodeKind::kServer, server);
    tracer->tap(client->name(), NodeKind::kClient, &last);
    tracer->set_link(access->name(), backend->name(), kBackend);
    tracer->set_link(client->name(), access->name(), kAccess);
    tracer->set_link(server->name(), backend->name(), net::LinkParams::lan());
    tracer->set_link(access->name(), global->name(), net::LinkParams::lan());
    tracer->set_link(backend->name(), global->name(), net::LinkParams::lan());
  } else {
    s.net().attach(client->name(), &last);
  }
  c.setup_s = static_cast<double>(wall_ns() - t0) / 1e9;

  const StackCounts counts0 = StackCounts::read(s.net().metrics());
  const auto buf0 = BufferStats::snapshot();
  const std::uint64_t pdus0 = s.net().pdus_delivered();
  const std::uint64_t bytes0 = s.net().bytes_delivered();
  const std::uint64_t events0 = s.sim().events_processed();
  const std::size_t first_span = tracer ? tracer->spans().size() : 0;

  // Save.
  const TimePoint save_sim0 = s.sim().now();
  std::uint32_t save_root = tracer ? tracer->begin(SpanKind::kCall, client->name(), "caapi.fs.write") : 0;
  std::int64_t w0 = wall_ns();
  const Status saved = fs->write_file("model.ckpt", model);
  c.save_wall_s = static_cast<double>(wall_ns() - w0) / 1e9;
  if (tracer) tracer->end(save_root);
  c.save_sim_s = to_seconds(last.last - save_sim0);
  r.attempted += 1;
  if (!saved.ok()) r.wrong("model: save failed: " + saved.error().message);
  const std::size_t save_end = tracer ? tracer->spans().size() : 0;

  // Load.
  const TimePoint load_sim0 = s.sim().now();
  std::uint32_t load_root = tracer ? tracer->begin(SpanKind::kCall, client->name(), "caapi.fs.read") : 0;
  w0 = wall_ns();
  auto loaded = fs->read_file("model.ckpt");
  c.load_wall_s = static_cast<double>(wall_ns() - w0) / 1e9;
  if (tracer) tracer->end(load_root);
  const std::size_t load_end = tracer ? tracer->spans().size() : 0;
  c.load_sim_s = to_seconds(last.last - load_sim0);
  r.attempted += 1;
  if (!loaded.ok() || *loaded != model) r.wrong("model: loaded model differs from the saved one");

  c.pdus = s.net().pdus_delivered() - pdus0;
  c.bytes = s.net().bytes_delivered() - bytes0;
  c.events = s.sim().events_processed() - events0;
  c.max_pdu = s.net().metrics().histogram("net.pdu.wire_bytes").max();
  const auto buf1 = BufferStats::snapshot();
  c.copied = buf1.bytes_copied - buf0.bytes_copied;
  c.allocs = buf1.segment_allocs - buf0.segment_allocs;
  c.counts = StackCounts::read(s.net().metrics()) - counts0;
  c.store = store_ratios({server}, static_cast<double>(kModelBytes));

  if (tracer) {
    const std::int64_t rf0 = wall_ns();
    const std::uint32_t rf = tracer->begin(SpanKind::kCall, client->name(), "caapi.fs.refresh");
    if (!fs->refresh().ok()) r.wrong("model: refresh failed");
    tracer->end(rf);
    r.layer["caapi.fs.refresh_us"] = {static_cast<double>(wall_ns() - rf0) / 1e3, "us"};

    const Tracer::CauseStats causes = tracer->resolve_causes();
    if (causes.uncaused != 0) {
      r.wrong("model: " + std::to_string(causes.uncaused) + " traced deliveries have no cause");
    }
    // The span that delivered each call's final response to the client.
    auto last_client_delivery = [&](std::size_t from, std::size_t to) {
      std::uint32_t last_id = 0;
      for (std::size_t id = from; id < to; ++id) {
        const Span& sp = tracer->spans()[id];
        if (sp.kind == SpanKind::kDelivery && tracer->kind_of(sp.node) == NodeKind::kClient) {
          last_id = static_cast<std::uint32_t>(id);
        }
      }
      return last_id;
    };
    const std::uint32_t save_last = last_client_delivery(save_root, save_end);
    const std::uint32_t load_last = last_client_delivery(load_root, load_end);
    const Tracer::HopTerms load = tracer->blocking_path(load_last, load_root);
    const Tracer::HopTerms save = tracer->blocking_path(save_last, save_root);
    if (!load.reached_root) r.wrong("model: the load's blocking path did not reach its root");
    if (!save.reached_root) r.wrong("model: the save's blocking path did not reach its root");
    r.layer["net.serialization_ms"] = {load.serialization_ns / 1e6, "ms"};
    r.layer["net.propagation_ms"] = {load.propagation_ns / 1e6, "ms"};
    r.layer["net.queueing_ms"] = {load.queueing_ns / 1e6, "ms"};
    r.detail["save_path_serialization_ms"] = {save.serialization_ns / 1e6, "ms"};
    r.detail["save_path_propagation_ms"] = {save.propagation_ns / 1e6, "ms"};
    r.detail["save_path_queueing_ms"] = {save.queueing_ns / 1e6, "ms"};

    const LayerTotals tot = layer_totals(*tracer, first_span, load_end);
    const double wall_us = (c.save_wall_s + c.load_wall_s) * 1e6;
    for (const auto& [key, ns] : tot.self_ns) r.detail["self_us_per_op." + key] = {ns / 2 / 1e3, "us"};
    r.layer["client.issue_us"] = {0, "us"};
    r.layer["client.complete_us"] = {tot.per_span_ns("client.complete") / 1e3, "us"};
    r.layer["server.append_us"] = {tot.per_span_ns("server.append") / 1e3, "us"};
    r.layer["server.read_us"] = {tot.per_span_ns("server.read") / 1e3, "us"};
    r.layer["server.replica_us"] = {tot.per_span_ns("server.replica") / 1e3, "us"};
    r.layer["router.fwd_ns"] = {tot.per_span_ns("router"), "ns"};
    r.layer["trace.unattributed_us_per_op"] = {(wall_us - tot.total_self_ns / 1e3) / 2, "us"};
    r.layer["trace.spans_per_op"] = {static_cast<double>(load_end - first_span) / 2, "count"};
    r.layer["trace.uncaused_spans"] = {static_cast<double>(causes.uncaused), "count"};
    r.detail["trace_background_roots"] = {static_cast<double>(causes.background_roots), "count"};
    r.detail["traced_wall_us_per_op"] = {wall_us / 2, "us"};
  }
  return c;
}

}  // namespace

void run_model_store(const Config& cfg, Report& r) {
  const std::int64_t deadline = wall_ns() + static_cast<std::int64_t>(cfg.seconds * 1e9);
  std::vector<double> setup_s, save_rates, load_rates, traced_cycle_s, untraced_cycle_s;
  Cycle first;
  int cycles = 0;
  bool traced_filled = false;
  for (; cycles < 3 || wall_ns() < deadline; ++cycles) {
    const bool traced = cfg.trace && cycles % 2 == 1 && !traced_filled;
    Cycle c = run_cycle(cfg, r, cycles, traced);
    setup_s.push_back(c.setup_s);
    const double cycle_s = c.save_wall_s + c.load_wall_s;
    if (traced) {
      traced_filled = true;
      traced_cycle_s.push_back(cycle_s);
      continue;
    }
    untraced_cycle_s.push_back(cycle_s);
    save_rates.push_back(kChunks / c.save_wall_s);
    load_rates.push_back(kChunks / c.load_wall_s);
    if (cycles == 0) {
      r.e2e["peak_rss_mb"] = {peak_rss_mib(), "MiB"};
      first = c;
    } else if (c.save_sim_s != first.save_sim_s || c.load_sim_s != first.load_sim_s ||
               c.counts.glookup_queries != first.counts.glookup_queries) {
      r.wrong("model: cycles disagree on simulated save/load time");
    }
  }
  const double mib = static_cast<double>(kModelBytes) / (1 << 20);
  const double chunk_mib = static_cast<double>(kChunkBytes) / (1 << 20);
  r.e2e["setup_s"] = {fast_duration(setup_s), "s"};
  r.detail["setup_s_median"] = {median(setup_s), "s"};
  r.e2e["primary_ops_per_s"] = {fast_rate(save_rates), "ops/s"};
  r.e2e["secondary_ops_per_s"] = {fast_rate(load_rates), "ops/s"};
  r.detail["save_MBps"] = {fast_rate(save_rates) * chunk_mib, "MiB/s"};
  r.detail["load_MBps"] = {fast_rate(load_rates) * chunk_mib, "MiB/s"};
  r.detail["save_sim_s"] = {first.save_sim_s, "s"};
  r.detail["load_sim_s"] = {first.load_sim_s, "s"};
  r.stamp["cycles"] = cycles;
  r.stamp["model_MiB"] = mib;
  r.stamp["chunks_per_model"] = kChunks;
  if (!cfg.trace) return;

  const double ops = 2;  // one save and one load per cycle
  r.layer["sim.save_s"] = {first.save_sim_s, "s"};
  r.layer["sim.load_s"] = {first.load_sim_s, "s"};
  r.layer["net.pdus_per_op"] = {static_cast<double>(first.pdus) / ops, "count"};
  r.layer["net.bytes_per_op"] = {static_cast<double>(first.bytes) / ops, "B"};
  r.layer["net.max_pdu_bytes"] = {static_cast<double>(first.max_pdu), "B"};
  r.layer["sim.events_per_op"] = {static_cast<double>(first.events) / ops, "count"};
  r.layer["wire.copied_bytes_per_pdu"] = {
      static_cast<double>(first.copied) / static_cast<double>(first.pdus), "B"};
  r.layer["wire.segment_allocs"] = {static_cast<double>(first.allocs), "count"};
  r.layer["store.flushes_per_append"] = {first.store.flushes_per_append, "ratio"};
  r.layer["store.bytes_per_user_byte"] = {first.store.bytes_per_user_byte, "ratio"};
  r.layer["trust.handshake_ms"] = {first.handshake_ms, "ms"};
  first.counts.fill(ops, r);
  const double untraced = quantile(untraced_cycle_s, 0.1);
  if (!traced_cycle_s.empty()) {
    r.layer["trace.overhead_pct"] = {(traced_cycle_s[0] - untraced) / untraced * 100.0, "%"};
  }
  Rng chunk_rng(cfg.seed ^ 0x6d6f64656cULL);
  std::vector<Bytes> chunks;
  for (int i = 0; i < 8; ++i) chunks.push_back(chunk_rng.next_bytes(kChunkBytes));
  probe_layers(chunks, cfg.seed, "model", r);
}

}  // namespace gdpbench
