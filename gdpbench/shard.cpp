// Data-plane layer of fabric_forward's traced run: router::ShardedDataPlane,
// threaded backend.
//
// One producer thread (this one) builds 64 B frames for a 64-entry
// published FIB and feeds the shard workers; each frame is chained through
// 16 forwarding hops by resubmission from the egress hook.  Runs at 2 shards
// (3 threads) and at 1 shard give the scaling ratio.  Its wall-clock rate
// is not an end-to-end metric: on a shared 4-core host ten runs of it
// spread by about a quarter of their median.
#include <atomic>
#include <thread>

#include "bench.hpp"
#include "common/buffer.hpp"
#include "router/dataplane.hpp"
#include "router/fib.hpp"

namespace gdpbench {

using namespace gdp;

namespace {

constexpr std::uint32_t kTargets = 64;
constexpr std::uint8_t kTtl = 16;
constexpr std::size_t kPayload = 64;
constexpr std::uint64_t kBatchOrigins = 16384;
constexpr std::uint64_t kWindow = 1024;  ///< frames in flight
constexpr int kBatchesPerPlane = 12;

Name target_name(std::uint32_t i) {
  Bytes raw(32, 0);
  raw[0] = 0xD6;
  raw[1] = static_cast<std::uint8_t>(i >> 8);
  raw[2] = static_cast<std::uint8_t>(i);
  return *Name::from_bytes(raw);
}

struct PlaneResult {
  std::vector<double> rates;  ///< forwarding hops per second, per batch
  double setup_s = 0;
  double produce_ns = 0, wait_share = 0, fwd_ns_p50 = 0, skew = 0;
  std::uint64_t stalls = 0, allocs = 0;
  double copied_per_origin = 0;
};

/// Builds a plane with `shards` workers, runs `batches` fixed-size batches
/// and stops it.  `timed_producer` adds per-frame producer timing.
PlaneResult run_plane(const Config& cfg, Report& r, std::size_t shards, int batches,
                      bool timed_producer) {
  PlaneResult out;
  const std::int64_t t0 = wall_ns();
  router::FibPublisher fib;
  const Name hop = *Name::from_bytes(Bytes(32, 0x7A));
  for (std::uint32_t i = 0; i < kTargets; ++i) fib.upsert(target_name(i), hop, 0);
  fib.publish();

  router::ShardedDataPlane::Config pc;
  pc.num_shards = shards;
  pc.ring_capacity = 4096;
  pc.batch = 512;
  pc.seed = cfg.seed;
  router::ShardedDataPlane* plane = nullptr;
  std::atomic<std::uint64_t> chains_done{0};
  router::ShardedDataPlane dp(pc, fib,
                              [&](std::size_t shard, const Name&, wire::PduView pdu) {
                                if (pdu.ttl() == 0 || !plane->resubmit(shard, std::move(pdu))) {
                                  chains_done.fetch_add(1, std::memory_order_relaxed);
                                }
                              });
  plane = &dp;

  Rng data(cfg.seed ^ 0xda7aULL);
  wire::Pdu proto;
  proto.type = wire::MsgType::kBenchData;
  proto.ttl = kTtl;
  proto.payload = data.next_bytes(kPayload);
  proto.src = *Name::from_bytes(Bytes(32, 0xEE));

  std::uint64_t submitted = 0;
  std::int64_t produce_ns = 0, wait_ns = 0;
  auto pump = [&](std::uint64_t count) {
    for (std::uint64_t n = 0; n < count; ++n) {
      if (submitted - chains_done.load(std::memory_order_relaxed) >= kWindow) {
        const std::int64_t w = timed_producer ? wall_ns() : 0;
        while (submitted - chains_done.load(std::memory_order_relaxed) >= kWindow) {
          std::this_thread::yield();
        }
        if (timed_producer) wait_ns += wall_ns() - w;
      }
      const std::int64_t p = timed_producer ? wall_ns() : 0;
      wire::Pdu pdu = proto;
      pdu.dst = target_name(static_cast<std::uint32_t>(submitted % kTargets));
      wire::PduView view = wire::PduView::build(pdu);
      const std::size_t shard = dp.shard_of(view.dst_bytes());
      while (!dp.submit_to(shard, std::move(view))) {
        ++out.stalls;
        std::this_thread::yield();
      }
      if (timed_producer) produce_ns += wall_ns() - p;
      ++submitted;
    }
    while (chains_done.load(std::memory_order_relaxed) < submitted) std::this_thread::yield();
  };

  dp.start();
  pump(kBatchOrigins);  // warm-up: pool and rings reach steady state
  out.setup_s = static_cast<double>(wall_ns() - t0) / 1e9;

  const auto buf0 = BufferStats::snapshot();
  std::int64_t busy_ns = 0;
  for (int b = 0; b < batches; ++b) {
    const std::uint64_t fwd0 = dp.forwarded();
    const std::int64_t w0 = wall_ns();
    pump(kBatchOrigins);
    const std::int64_t dt = wall_ns() - w0;
    busy_ns += dt;
    const std::uint64_t hops = dp.forwarded() - fwd0;
    r.attempted += kBatchOrigins;
    if (hops != kBatchOrigins * kTtl) {
      r.wrong("shard: batch forwarded " + std::to_string(hops) + " hops, expected " +
              std::to_string(kBatchOrigins * kTtl));
    }
    out.rates.push_back(static_cast<double>(hops) / (static_cast<double>(dt) / 1e9));
  }
  const auto buf1 = BufferStats::snapshot();
  dp.stop();
  if (dp.dropped() != 0) r.wrong("shard: the data plane dropped frames");

  const double origins = static_cast<double>(kBatchOrigins) * batches;
  out.copied_per_origin = static_cast<double>(buf1.bytes_copied - buf0.bytes_copied) / origins;
  if (out.copied_per_origin > static_cast<double>(kPayload + wire::kPduOverhead) + 0.5) {
    r.wrong("shard: frames were copied per hop");
  }
  out.allocs = buf1.segment_allocs - buf0.segment_allocs;
  if (timed_producer) {
    out.produce_ns = static_cast<double>(produce_ns) / (origins + kBatchOrigins);
    out.wait_share = static_cast<double>(wait_ns) / static_cast<double>(busy_ns);
  }
  telemetry::Histogram merged;
  double lo = 0, hi = 0;
  for (std::size_t i = 0; i < shards; ++i) {
    const telemetry::Histogram& h = dp.fwd_latency(i);
    merged.merge(h);
    const auto n = static_cast<double>(h.count());
    lo = i == 0 ? n : std::min(lo, n);
    hi = std::max(hi, n);
  }
  out.fwd_ns_p50 = static_cast<double>(merged.p50());
  out.skew = lo > 0 ? hi / lo : 0;
  return out;
}

}  // namespace

void data_plane_layers(const Config& cfg, Report& r) {
  const PlaneResult two = run_plane(cfg, r, 2, kBatchesPerPlane, /*timed_producer=*/false);
  const PlaneResult timed = run_plane(cfg, r, 2, kBatchesPerPlane, /*timed_producer=*/true);
  const PlaneResult one = run_plane(cfg, r, 1, kBatchesPerPlane, /*timed_producer=*/false);
  const double hops2 = fast_rate(two.rates);
  const double hops1 = fast_rate(one.rates);
  r.detail["dp_hops_per_s"] = {hops2, "hops/s"};
  r.detail["dp_hops_per_s_1shard"] = {hops1, "hops/s"};
  r.detail["dp_copied_bytes_per_origin"] = {two.copied_per_origin, "B"};
  r.layer["dp.produce_ns"] = {timed.produce_ns, "ns"};
  r.layer["dp.producer_wait_share"] = {timed.wait_share, "ratio"};
  r.layer["dp.fwd_ns_p50"] = {two.fwd_ns_p50, "ns"};
  r.layer["dp.stalls"] = {static_cast<double>(two.stalls), "count"};
  r.layer["dp.shard_skew"] = {two.skew, "ratio"};
  r.layer["dp.scaling_eff"] = {hops2 / (2 * hops1), "ratio"};
}

}  // namespace gdpbench
