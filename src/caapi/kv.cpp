#include "caapi/kv.hpp"

#include "common/varint.hpp"

namespace gdp::caapi {

using client::await;

namespace {
constexpr std::uint8_t kPut = 1;
constexpr std::uint8_t kDel = 2;
constexpr std::uint8_t kCheckpoint = 3;
}  // namespace

GdpKvStore::GdpKvStore(harness::Scenario& scenario, client::GdpClient& client,
                       MountOptions options, harness::CapsuleSetup setup,
                       std::optional<capsule::Writer> writer)
    : scenario_(scenario),
      client_(client),
      options_(options),
      setup_(std::move(setup)),
      writer_(std::move(writer)) {}

Result<GdpKvStore> GdpKvStore::mount(const Mount& m) {
  MountOptions options = m.options();
  if (!m.creates()) {
    // Open-existing: a read-only recovered view (the capsule is
    // strict-single-writer; only the creating mount holds its writer key).
    harness::CapsuleSetup setup{nullptr, nullptr, m.existing(), "chain"};
    GdpKvStore store(m.scenario(), m.client(), options, std::move(setup),
                     std::nullopt);
    GDP_RETURN_IF_ERROR(store.recover(m.existing()));
    return store;
  }
  if (options.checkpoint_interval == 0) options.checkpoint_interval = 1;
  // Align the hash-pointer strategy with the snapshot cadence: every
  // record carries a pointer to the latest checkpoint record.
  harness::CapsuleSetup setup = harness::make_capsule(
      m.scenario().key_rng(), "kv:" + m.label(),
      capsule::WriterMode::kStrictSingleWriter,
      "checkpoint:" + std::to_string(options.checkpoint_interval + 1));
  GDP_RETURN_IF_ERROR(
      harness::place_capsule(m.scenario(), setup, m.client(), m.servers()));
  capsule::Writer writer = setup.make_writer();
  return GdpKvStore(m.scenario(), m.client(), options, std::move(setup),
                    std::move(writer));
}

Status GdpKvStore::append_op(Bytes payload) {
  if (!writer_.has_value()) {
    return make_error(Errc::kPermissionDenied, "read-only kv mount");
  }
  auto op = client_.append(*writer_, payload, options_.required_acks);
  GDP_ASSIGN_OR_RETURN(client::AppendOutcome outcome, await(scenario_.sim(), op));
  (void)outcome;
  return ok_status();
}

Bytes GdpKvStore::snapshot_payload() const {
  Bytes payload{kCheckpoint};
  put_varint(payload, map_.size());
  for (const auto& [k, v] : map_) {
    put_length_prefixed(payload, to_bytes(k));
    put_length_prefixed(payload, to_bytes(v));
  }
  return payload;
}

Status GdpKvStore::put(const std::string& key, const std::string& value) {
  Bytes payload{kPut};
  put_length_prefixed(payload, to_bytes(key));
  put_length_prefixed(payload, to_bytes(value));
  GDP_RETURN_IF_ERROR(append_op(std::move(payload)));
  map_[key] = value;
  if (++ops_since_checkpoint_ >= options_.checkpoint_interval) {
    GDP_RETURN_IF_ERROR(append_op(snapshot_payload()));
    ops_since_checkpoint_ = 0;
  }
  return ok_status();
}

Status GdpKvStore::del(const std::string& key) {
  Bytes payload{kDel};
  put_length_prefixed(payload, to_bytes(key));
  GDP_RETURN_IF_ERROR(append_op(std::move(payload)));
  map_.erase(key);
  if (++ops_since_checkpoint_ >= options_.checkpoint_interval) {
    GDP_RETURN_IF_ERROR(append_op(snapshot_payload()));
    ops_since_checkpoint_ = 0;
  }
  return ok_status();
}

std::optional<std::string> GdpKvStore::get(const std::string& key) const {
  auto it = map_.find(key);
  if (it == map_.end()) return std::nullopt;
  return it->second;
}

Status GdpKvStore::apply(BytesView payload) {
  if (payload.empty()) return make_error(Errc::kCorruptData, "empty kv record");
  ByteReader r(payload.subspan(1));
  switch (payload[0]) {
    case kPut: {
      auto k = r.get_length_prefixed();
      auto v = r.get_length_prefixed();
      if (!k || !v) return make_error(Errc::kCorruptData, "truncated put");
      map_[to_string(*k)] = to_string(*v);
      return ok_status();
    }
    case kDel: {
      auto k = r.get_length_prefixed();
      if (!k) return make_error(Errc::kCorruptData, "truncated del");
      map_.erase(to_string(*k));
      return ok_status();
    }
    case kCheckpoint: {
      auto count = r.get_varint();
      if (!count) return make_error(Errc::kCorruptData, "truncated checkpoint");
      map_.clear();
      for (std::uint64_t i = 0; i < *count; ++i) {
        auto k = r.get_length_prefixed();
        auto v = r.get_length_prefixed();
        if (!k || !v) return make_error(Errc::kCorruptData, "truncated checkpoint pair");
        map_[to_string(*k)] = to_string(*v);
      }
      return ok_status();
    }
    default:
      return make_error(Errc::kCorruptData, "unknown kv record tag");
  }
}

Result<std::uint64_t> GdpKvStore::recover(const capsule::Metadata& metadata) {
  // Find the tip first.
  auto latest = await(scenario_.sim(), client_.read_latest(metadata));
  if (!latest.ok()) return latest.error();
  const std::uint64_t tip = latest->records.back().header.seqno;

  // A checkpoint is guaranteed within any window of interval+1 records
  // once one exists; otherwise the window reaches back to record 1.
  const std::uint64_t window = options_.checkpoint_interval + 1;
  const std::uint64_t first = tip > window ? tip - window + 1 : 1;
  auto outcome = await(scenario_.sim(), client_.read(metadata, first, tip));
  if (!outcome.ok()) return outcome.error();

  // Replay from the last checkpoint in the window (or from scratch).
  std::size_t start = 0;
  for (std::size_t i = outcome->records.size(); i > 0; --i) {
    if (!outcome->records[i - 1].payload.empty() &&
        outcome->records[i - 1].payload[0] == kCheckpoint) {
      start = i - 1;
      break;
    }
  }
  map_.clear();
  for (std::size_t i = start; i < outcome->records.size(); ++i) {
    GDP_RETURN_IF_ERROR(apply(outcome->records[i].payload));
  }
  return static_cast<std::uint64_t>(outcome->records.size());
}

}  // namespace gdp::caapi
