// CapsuleFS: the multi-writer filesystem CAAPI (§V-B, §VI-A, §IX).
//
// The paper's TensorFlow plugin kept "a top-level directory in a single
// DataCapsule; each filename is represented as its own DataCapsule".
// CapsuleFS keeps that shape but makes the directory capsule
// *multi-writer*: the capsule owner delegates write authority per branch
// via WriterCredentials, every directory mutation is a typed record
// (mkdir / create / rename / unlink / set-attr / chunk-commit) signed by
// the writer's own key and enveloped with its credential, and concurrent
// writers append independently — racing appends land as branches.
//
// Readers replay ALL records (canonical chain + branch records) in one
// deterministic conflict-resolution order — (seqno, writer pubkey,
// record hash) — so every replica and every rerun materializes a
// byte-identical tree: `tree_digest()` is the proof.  Writers land
// records either through the SCL's optimistic compare-and-append
// (kCas: linear history, budgeted retries) or as unconditional branch
// appends (kBlind: zero contention, merged at replay).
//
// File contents stay in per-file strict-single-writer capsules, chunked
// into records; the directory record embeds the file capsule's
// serialized metadata (which hashes to its name, so it is
// self-authenticating) — integrity carries end-to-end with no extra key
// distribution.
#pragma once

#include <map>
#include <optional>
#include <string>

#include "caapi/mount.hpp"
#include "caapi/scl.hpp"
#include "capsule/credential.hpp"
#include "client/client.hpp"
#include "harness/scenario.hpp"

namespace gdp::caapi {

/// One typed directory-capsule mutation.  This is the *inner* payload of
/// a multi-writer envelope (the credential rides ahead of it).
struct DirRecord {
  enum class Type : std::uint8_t {
    kMkdir = 1,        ///< create a directory node at `path`
    kCreate = 2,       ///< bind `path` to a file capsule (metadata + chunks)
    kRename = 3,       ///< move `path` (and its subtree) to `target`
    kUnlink = 4,       ///< remove `path` (and its subtree)
    kSetAttr = 5,      ///< set the free-form attribute on `path`
    kChunkCommit = 6,  ///< commit a new chunk_count for an existing binding
  };

  Type type = Type::kMkdir;
  std::string path;
  std::string target;      ///< kRename destination; kSetAttr value
  Bytes file_metadata;     ///< kCreate/kChunkCommit: serialized capsule::Metadata
  std::uint64_t chunk_count = 0;

  Bytes serialize() const;
  static Result<DirRecord> deserialize(BytesView b);

  friend bool operator==(const DirRecord&, const DirRecord&) = default;
};

class GdpFilesystem {
 public:
  enum class Concurrency : std::uint8_t {
    kCas = 0,    ///< SCL compare-and-append: linear history, budgeted retries
    kBlind = 1,  ///< unconditional branch appends, merged at replay
  };

  struct FileEntry {
    capsule::Metadata metadata;  ///< the file capsule (self-authenticating)
    std::uint64_t chunk_count = 0;
  };

  /// One node of the replayed directory tree.
  struct Node {
    bool is_dir = false;
    std::optional<FileEntry> file;  ///< set iff !is_dir
    std::string attr;               ///< free-form kSetAttr value
  };

  /// Create-new: mints owner + founding-writer keys, places a
  /// kMultiWriter directory capsule on the mount's servers, and
  /// self-issues the founding writer's credential.  Open-existing
  /// (m.creates() == false): attaches read-only; writes fail with
  /// kPermissionDenied until mounted with a credential.
  static Result<GdpFilesystem> mount(const Mount& m);

  /// Open-existing as a credentialed writer: `credential` must be an
  /// owner-signed grant (see grant_writer) for `writer_key`'s public
  /// half.
  static Result<GdpFilesystem> mount(const Mount& m,
                                     capsule::WriterCredential credential,
                                     crypto::PrivateKey writer_key);

  /// Create-new with default MountOptions: shorthand for
  /// mount(Mount::create(scenario, client, servers, label)).
  static Result<GdpFilesystem> create(harness::Scenario& scenario,
                                      client::GdpClient& client,
                                      std::vector<server::CapsuleServer*> servers,
                                      const std::string& label) {
    return mount(Mount::create(scenario, client, std::move(servers), label));
  }

  /// Owner-only: delegate write authority over the directory capsule to
  /// another writer key, as a time-bounded branch credential the grantee
  /// passes to mount().
  Result<capsule::WriterCredential> grant_writer(const crypto::PublicKey& writer,
                                                 const std::string& branch) const;

  /// Writes (or overwrites) a file: creates its capsule, streams chunk
  /// records, then commits the binding into the directory capsule.
  Status write_file(const std::string& path, BytesView content);

  /// Verified read of the whole file.  Tip-aware: refreshes the
  /// directory view first, so a file committed by another client is
  /// readable without refresh().
  Result<Bytes> read_file(const std::string& path);

  Status mkdir(const std::string& path);
  Status rename(const std::string& from, const std::string& to);
  Status set_attr(const std::string& path, const std::string& value);
  Status remove(const std::string& path);

  /// Tip-aware listing / existence check (refreshes first; best-effort —
  /// serves the last known view if the refresh cannot reach a replica).
  std::vector<std::string> list();
  bool exists(const std::string& path);

  /// The replayed tree, as last refreshed.
  const std::map<std::string, Node>& tree() const { return tree_; }

  /// Rebuilds the local tree from the directory capsule (canonical chain
  /// + branch records, deterministic merge order).
  Status refresh();

  /// SHA-256 over the canonical serialization of the replayed tree.
  /// Byte-identical across replicas and reruns iff conflict resolution
  /// is deterministic.
  Name tree_digest() const;

  /// Deterministic replay of an arbitrary record set (canonical +
  /// branches, any order; already signature-verified by ingest or the
  /// read path) into a tree digest — used to check replica convergence
  /// server-side without a client in the loop.
  static Result<Name> replay_digest(const capsule::Metadata& metadata,
                                    const std::vector<capsule::Record>& records);

  bool can_write() const { return credential_.has_value(); }
  const Name& directory_capsule() const { return dir_metadata_.name(); }
  const capsule::Metadata& directory_metadata() const { return dir_metadata_; }
  const capsule::WriterCredential& credential() const { return *credential_; }
  SclSession* scl() { return scl_ ? &*scl_ : nullptr; }
  Concurrency concurrency() const { return concurrency_; }
  void set_concurrency(Concurrency c) { concurrency_ = c; }

  static Name tree_digest_of(const std::map<std::string, Node>& tree);

 private:
  GdpFilesystem(const Mount& m, capsule::Metadata dir_metadata);

  Status commit_record(const DirRecord& rec);
  /// Applies one decoded DirRecord to `tree` (merge-order semantics).
  static void apply(std::map<std::string, Node>& tree, const DirRecord& rec);
  static Status replay(const capsule::Metadata& metadata,
                       std::vector<capsule::Record> records,
                       std::map<std::string, Node>& tree);

  harness::Scenario& scenario_;
  client::GdpClient& client_;
  std::vector<server::CapsuleServer*> servers_;
  MountOptions options_;
  Concurrency concurrency_ = Concurrency::kCas;
  capsule::Metadata dir_metadata_;
  std::unique_ptr<crypto::PrivateKey> owner_key_;  ///< create-mode only
  std::optional<capsule::WriterCredential> credential_;
  std::optional<SclSession> scl_;
  std::map<std::string, Node> tree_;
};

}  // namespace gdp::caapi
