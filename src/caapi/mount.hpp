// Shared CAAPI mount surface.
//
// Every CAAPI used to grow its own `create(scenario, client, servers,
// label, Options)` static with its own bag of knobs; clients had five
// slightly different entry points for what the paper describes as one
// operation — attaching an application-level view to a DataCapsule.  A
// Mount names the attachment once: the transport context (scenario,
// client, replica set), whether the capsule is being created fresh or an
// existing one is being opened, and the cross-CAAPI policy knobs
// (durability acks, chunking, checkpoints, concurrency).  Each CAAPI
// exposes `mount(const Mount&)`.
#pragma once

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "caapi/scl.hpp"
#include "client/client.hpp"
#include "harness/scenario.hpp"

namespace gdp::caapi {

struct MountOptions {
  /// §VI-B durability mode for every write issued through the mount.
  std::uint32_t required_acks = 1;
  /// fs: file-content chunking.
  std::size_t chunk_bytes = 256 * 1024;
  /// kv: ops between checkpoint snapshots.
  std::uint64_t checkpoint_interval = 16;
  /// Concurrency knobs for multi-writer CAAPIs (fs directory capsule).
  SclSession::Options scl;
};

/// One attachment of a CAAPI to a capsule: create-new vs open-existing
/// plus everything needed to reach the replicas.
class Mount {
 public:
  /// Create-new: the CAAPI mints fresh owner/writer keys and places its
  /// capsule(s) on `servers`.
  static Mount create(harness::Scenario& scenario, client::GdpClient& client,
                      std::vector<server::CapsuleServer*> servers,
                      std::string label, MountOptions options = {}) {
    Mount m(scenario, client, std::move(servers), options);
    m.label_ = std::move(label);
    return m;
  }

  /// Open-existing: attach to an already placed capsule by its
  /// (self-authenticating) metadata.  Read-side CAAPIs need nothing else;
  /// write-side CAAPIs additionally take credentials/keys in their
  /// mount() overloads.
  static Mount open(harness::Scenario& scenario, client::GdpClient& client,
                    std::vector<server::CapsuleServer*> servers,
                    capsule::Metadata existing, MountOptions options = {}) {
    Mount m(scenario, client, std::move(servers), options);
    m.existing_ = std::move(existing);
    return m;
  }

  bool creates() const { return !existing_.has_value(); }

  harness::Scenario& scenario() const { return *scenario_; }
  client::GdpClient& client() const { return *client_; }
  const std::vector<server::CapsuleServer*>& servers() const { return servers_; }
  const std::string& label() const { return label_; }
  const MountOptions& options() const { return options_; }
  /// Only meaningful when !creates().
  const capsule::Metadata& existing() const { return *existing_; }

 private:
  Mount(harness::Scenario& scenario, client::GdpClient& client,
        std::vector<server::CapsuleServer*> servers, MountOptions options)
      : scenario_(&scenario),
        client_(&client),
        servers_(std::move(servers)),
        options_(options) {}

  harness::Scenario* scenario_;
  client::GdpClient* client_;
  std::vector<server::CapsuleServer*> servers_;
  std::string label_;
  MountOptions options_;
  std::optional<capsule::Metadata> existing_;
};

}  // namespace gdp::caapi
