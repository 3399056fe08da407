#include "caapi/fs.hpp"

#include <algorithm>
#include <limits>

#include "capsule/strategy.hpp"
#include "common/varint.hpp"
#include "crypto/sha256.hpp"

namespace gdp::caapi {

using client::await;

namespace {
/// Owner/founding-writer credentials never expire within a simulation.
constexpr std::int64_t kForeverNs = std::numeric_limits<std::int64_t>::max() / 2;
}  // namespace

// ---- DirRecord codec ------------------------------------------------------------

Bytes DirRecord::serialize() const {
  Bytes out{static_cast<std::uint8_t>(type)};
  put_length_prefixed(out, to_bytes(path));
  put_length_prefixed(out, to_bytes(target));
  put_length_prefixed(out, file_metadata);
  put_varint(out, chunk_count);
  return out;
}

Result<DirRecord> DirRecord::deserialize(BytesView b) {
  if (b.empty()) return make_error(Errc::kCorruptData, "empty directory record");
  const std::uint8_t t = b[0];
  if (t < static_cast<std::uint8_t>(Type::kMkdir) ||
      t > static_cast<std::uint8_t>(Type::kChunkCommit)) {
    return make_error(Errc::kCorruptData, "unknown directory record type");
  }
  ByteReader r(b.subspan(1));
  auto path = r.get_length_prefixed();
  auto target = r.get_length_prefixed();
  auto metadata = r.get_length_prefixed();
  auto chunks = r.get_varint();
  if (!path || !target || !metadata || !chunks) {
    return make_error(Errc::kCorruptData, "truncated directory record");
  }
  if (!r.empty()) {
    return make_error(Errc::kCorruptData, "trailing bytes in directory record");
  }
  DirRecord rec;
  rec.type = static_cast<Type>(t);
  rec.path = to_string(*path);
  rec.target = to_string(*target);
  rec.file_metadata = std::move(*metadata);
  rec.chunk_count = *chunks;
  return rec;
}

// ---- Mounting -------------------------------------------------------------------

GdpFilesystem::GdpFilesystem(const Mount& m, capsule::Metadata dir_metadata)
    : scenario_(m.scenario()),
      client_(m.client()),
      servers_(m.servers()),
      options_(m.options()),
      dir_metadata_(std::move(dir_metadata)) {}

Result<GdpFilesystem> GdpFilesystem::mount(const Mount& m) {
  if (m.servers().empty()) {
    return make_error(Errc::kInvalidArgument, "filesystem needs at least one server");
  }
  if (!m.creates()) {
    // Open-existing without a credential: read-only attachment.
    GdpFilesystem fs(m, m.existing());
    (void)fs.refresh();  // best effort; an empty/unreachable dir is still a mount
    return fs;
  }
  harness::CapsuleSetup setup =
      harness::make_capsule(m.scenario().key_rng(), "fsdir:" + m.label(),
                            capsule::WriterMode::kMultiWriter, "chain");
  GDP_RETURN_IF_ERROR(
      harness::place_capsule(m.scenario(), setup, m.client(), m.servers()));
  GdpFilesystem fs(m, setup.metadata);
  // The founding writer is credentialed exactly like any later grantee —
  // there is no privileged in-band writer in a multi-writer capsule.
  fs.credential_ = capsule::make_writer_credential(
      *setup.owner_key, setup.metadata.name(), setup.writer_key->public_key(),
      "owner", 0, kForeverNs);
  SclSession::Options scl = m.options().scl;
  scl.required_acks = m.options().required_acks;
  fs.scl_.emplace(m.scenario(), m.client(), setup.metadata, setup.make_writer(),
                  scl);
  fs.owner_key_ = std::move(setup.owner_key);
  return fs;
}

Result<GdpFilesystem> GdpFilesystem::mount(const Mount& m,
                                           capsule::WriterCredential credential,
                                           crypto::PrivateKey writer_key) {
  if (m.creates()) {
    return make_error(Errc::kInvalidArgument,
                      "credentialed mount requires an existing directory capsule");
  }
  if (credential.capsule != m.existing().name()) {
    return make_error(Errc::kInvalidArgument,
                      "credential is for a different capsule");
  }
  GdpFilesystem fs(m, m.existing());
  capsule::Writer writer(m.existing(), writer_key,
                         capsule::strategy_from_id("chain"));
  SclSession::Options scl = m.options().scl;
  scl.required_acks = m.options().required_acks;
  fs.scl_.emplace(m.scenario(), m.client(), m.existing(), std::move(writer), scl);
  fs.credential_ = std::move(credential);
  (void)fs.refresh();
  return fs;
}

Result<capsule::WriterCredential> GdpFilesystem::grant_writer(
    const crypto::PublicKey& writer, const std::string& branch) const {
  if (!owner_key_) {
    return make_error(Errc::kPermissionDenied,
                      "only the owning mount can grant writer credentials");
  }
  return capsule::make_writer_credential(*owner_key_, dir_metadata_.name(),
                                         writer, branch, 0, kForeverNs);
}

// ---- Deterministic replay -------------------------------------------------------

void GdpFilesystem::apply(std::map<std::string, Node>& tree, const DirRecord& rec) {
  switch (rec.type) {
    case DirRecord::Type::kMkdir: {
      Node dir;
      dir.is_dir = true;
      tree.emplace(rec.path, std::move(dir));  // no-op if the path exists
      break;
    }
    case DirRecord::Type::kCreate: {
      auto metadata = capsule::Metadata::deserialize(rec.file_metadata);
      if (!metadata.ok()) break;  // skip, deterministically, on every replica
      Node file;
      file.file = FileEntry{std::move(metadata).value(), rec.chunk_count};
      tree.insert_or_assign(rec.path, std::move(file));
      break;
    }
    case DirRecord::Type::kChunkCommit: {
      auto it = tree.find(rec.path);
      if (it != tree.end() && it->second.file.has_value()) {
        it->second.file->chunk_count = rec.chunk_count;
      } else if (!rec.file_metadata.empty()) {
        auto metadata = capsule::Metadata::deserialize(rec.file_metadata);
        if (!metadata.ok()) break;
        Node file;
        file.file = FileEntry{std::move(metadata).value(), rec.chunk_count};
        tree.insert_or_assign(rec.path, std::move(file));
      }
      break;
    }
    case DirRecord::Type::kRename: {
      if (rec.target.empty() || rec.path == rec.target) break;
      // Move the node and its whole subtree.
      const std::string prefix = rec.path + "/";
      std::vector<std::pair<std::string, Node>> moved;
      for (auto it = tree.lower_bound(rec.path); it != tree.end();) {
        if (it->first != rec.path &&
            it->first.compare(0, prefix.size(), prefix) != 0) {
          break;
        }
        std::string dest = rec.target + it->first.substr(rec.path.size());
        moved.emplace_back(std::move(dest), std::move(it->second));
        it = tree.erase(it);
      }
      for (auto& [dest, node] : moved) {
        tree.insert_or_assign(std::move(dest), std::move(node));
      }
      break;
    }
    case DirRecord::Type::kUnlink: {
      const std::string prefix = rec.path + "/";
      for (auto it = tree.lower_bound(rec.path); it != tree.end();) {
        if (it->first != rec.path &&
            it->first.compare(0, prefix.size(), prefix) != 0) {
          break;
        }
        it = tree.erase(it);
      }
      break;
    }
    case DirRecord::Type::kSetAttr: {
      auto it = tree.find(rec.path);
      if (it != tree.end()) it->second.attr = rec.target;
      break;
    }
  }
}

Status GdpFilesystem::replay(const capsule::Metadata& metadata,
                             std::vector<capsule::Record> records,
                             std::map<std::string, Node>& tree) {
  const bool multi_writer =
      metadata.mode() == capsule::WriterMode::kMultiWriter;
  // Conflict-resolution order: (seqno, writer pubkey, record hash).  The
  // sort key depends only on record contents, so replicas that hold the
  // same record *set* — in any arrival order — replay byte-identically.
  struct Keyed {
    std::uint64_t seqno;
    Bytes writer_pubkey;
    Name hash;
    DirRecord rec;
  };
  std::vector<Keyed> keyed;
  keyed.reserve(records.size());
  for (capsule::Record& record : records) {
    BytesView inner = record.payload;
    Bytes writer_pubkey;
    if (multi_writer) {
      auto envelope = capsule::open_mw_payload(record.payload);
      if (!envelope.ok()) continue;  // deterministic skip of malformed envelopes
      writer_pubkey = envelope->credential.writer_pubkey;
      auto rec = DirRecord::deserialize(envelope->inner);
      if (!rec.ok()) continue;
      keyed.push_back(Keyed{record.header.seqno, std::move(writer_pubkey),
                            record.hash(), std::move(rec).value()});
      continue;
    }
    auto rec = DirRecord::deserialize(inner);
    if (!rec.ok()) continue;
    keyed.push_back(
        Keyed{record.header.seqno, {}, record.hash(), std::move(rec).value()});
  }
  std::sort(keyed.begin(), keyed.end(), [](const Keyed& a, const Keyed& b) {
    if (a.seqno != b.seqno) return a.seqno < b.seqno;
    if (a.writer_pubkey != b.writer_pubkey) return a.writer_pubkey < b.writer_pubkey;
    return a.hash < b.hash;
  });
  // Duplicate records (same hash via canonical + branch overlap) must not
  // replay twice for types where reapplication is not idempotent.
  const Name* last_hash = nullptr;
  for (const Keyed& k : keyed) {
    if (last_hash && *last_hash == k.hash) continue;
    apply(tree, k.rec);
    last_hash = &k.hash;
  }
  return ok_status();
}

Name GdpFilesystem::tree_digest_of(const std::map<std::string, Node>& tree) {
  Bytes buf;
  for (const auto& [path, node] : tree) {
    put_length_prefixed(buf, to_bytes(path));
    buf.push_back(node.is_dir ? 1 : 0);
    put_length_prefixed(buf, to_bytes(node.attr));
    buf.push_back(node.file.has_value() ? 1 : 0);
    if (node.file.has_value()) {
      put_length_prefixed(buf, node.file->metadata.serialize());
      put_varint(buf, node.file->chunk_count);
    }
  }
  return crypto::digest_to_name(crypto::sha256(buf));
}

Name GdpFilesystem::tree_digest() const { return tree_digest_of(tree_); }

Result<Name> GdpFilesystem::replay_digest(
    const capsule::Metadata& metadata,
    const std::vector<capsule::Record>& records) {
  std::map<std::string, Node> tree;
  GDP_RETURN_IF_ERROR(replay(metadata, records, tree));
  return tree_digest_of(tree);
}

Status GdpFilesystem::refresh() {
  auto op = client_.read(dir_metadata_, 1, 0);
  auto outcome = await(scenario_.sim(), op);
  if (!outcome.ok()) {
    if (outcome.code() == Errc::kNotFound) {
      tree_.clear();  // empty directory capsule
      return ok_status();
    }
    return outcome.error();
  }
  std::vector<capsule::Record> records = std::move(outcome->records);
  records.insert(records.end(),
                 std::make_move_iterator(outcome->branch_records.begin()),
                 std::make_move_iterator(outcome->branch_records.end()));
  std::map<std::string, Node> tree;
  GDP_RETURN_IF_ERROR(replay(dir_metadata_, std::move(records), tree));
  tree_ = std::move(tree);
  return ok_status();
}

// ---- Mutations ------------------------------------------------------------------

Status GdpFilesystem::commit_record(const DirRecord& rec) {
  if (!credential_ || !scl_) {
    return make_error(Errc::kPermissionDenied,
                      "read-only mount: no writer credential");
  }
  Bytes envelope = capsule::wrap_mw_payload(*credential_, rec.serialize());
  if (concurrency_ == Concurrency::kCas) {
    GDP_ASSIGN_OR_RETURN(client::CasOutcome outcome, scl_->append(envelope));
    (void)outcome;
    return ok_status();
  }
  auto op = scl_->blind_append(envelope);
  GDP_ASSIGN_OR_RETURN(client::AppendOutcome outcome, await(scenario_.sim(), op));
  (void)outcome;
  return ok_status();
}

Status GdpFilesystem::write_file(const std::string& path, BytesView content) {
  // Each file is its own capsule; overwrites allocate a fresh one (the
  // old history remains immutable and provable — natural versioning).
  harness::CapsuleSetup file_setup = harness::make_capsule(
      scenario_.key_rng(), "file:" + path,
      capsule::WriterMode::kStrictSingleWriter, "chain");
  GDP_RETURN_IF_ERROR(
      harness::place_capsule(scenario_, file_setup, client_, servers_));

  capsule::Writer writer = file_setup.make_writer();
  std::vector<client::OpPtr<client::AppendOutcome>> ops;
  std::uint64_t chunk_count = 0;
  for (std::size_t off = 0; off < content.size() || content.empty();
       off += options_.chunk_bytes) {
    std::size_t n = std::min(options_.chunk_bytes, content.size() - off);
    ops.push_back(client_.append(writer, content.subspan(off, n),
                                 options_.required_acks));
    ++chunk_count;
    if (content.empty()) break;
  }
  scenario_.settle();
  for (auto& op : ops) {
    GDP_ASSIGN_OR_RETURN(client::AppendOutcome outcome, await(scenario_.sim(), op));
    (void)outcome;
  }

  DirRecord rec;
  rec.type = DirRecord::Type::kCreate;
  rec.path = path;
  rec.file_metadata = file_setup.metadata.serialize();
  rec.chunk_count = chunk_count;
  GDP_RETURN_IF_ERROR(commit_record(rec));
  Node node;
  node.file = FileEntry{file_setup.metadata, chunk_count};
  tree_.insert_or_assign(path, std::move(node));
  return ok_status();
}

Result<Bytes> GdpFilesystem::read_file(const std::string& path) {
  GDP_RETURN_IF_ERROR(refresh());
  auto it = tree_.find(path);
  if (it == tree_.end() || !it->second.file.has_value()) {
    return make_error(Errc::kNotFound, "no such file: " + path);
  }
  const FileEntry& entry = *it->second.file;
  if (entry.chunk_count == 0) return Bytes{};
  auto op = client_.read(entry.metadata, 1, entry.chunk_count);
  GDP_ASSIGN_OR_RETURN(client::ReadOutcome outcome, await(scenario_.sim(), op));
  Bytes content;
  for (const capsule::Record& rec : outcome.records) {
    append(content, rec.payload);
  }
  return content;
}

Status GdpFilesystem::mkdir(const std::string& path) {
  DirRecord rec;
  rec.type = DirRecord::Type::kMkdir;
  rec.path = path;
  GDP_RETURN_IF_ERROR(commit_record(rec));
  apply(tree_, rec);
  return ok_status();
}

Status GdpFilesystem::rename(const std::string& from, const std::string& to) {
  GDP_RETURN_IF_ERROR(refresh());
  if (!tree_.contains(from)) {
    return make_error(Errc::kNotFound, "no such path: " + from);
  }
  DirRecord rec;
  rec.type = DirRecord::Type::kRename;
  rec.path = from;
  rec.target = to;
  GDP_RETURN_IF_ERROR(commit_record(rec));
  apply(tree_, rec);
  return ok_status();
}

Status GdpFilesystem::set_attr(const std::string& path, const std::string& value) {
  GDP_RETURN_IF_ERROR(refresh());
  if (!tree_.contains(path)) {
    return make_error(Errc::kNotFound, "no such path: " + path);
  }
  DirRecord rec;
  rec.type = DirRecord::Type::kSetAttr;
  rec.path = path;
  rec.target = value;
  GDP_RETURN_IF_ERROR(commit_record(rec));
  apply(tree_, rec);
  return ok_status();
}

Status GdpFilesystem::remove(const std::string& path) {
  GDP_RETURN_IF_ERROR(refresh());
  if (!tree_.contains(path)) {
    return make_error(Errc::kNotFound, "no such path: " + path);
  }
  DirRecord rec;
  rec.type = DirRecord::Type::kUnlink;
  rec.path = path;
  GDP_RETURN_IF_ERROR(commit_record(rec));
  apply(tree_, rec);
  return ok_status();
}

// ---- Tip-aware views ------------------------------------------------------------

std::vector<std::string> GdpFilesystem::list() {
  // Best effort: a partitioned replica set serves the last known view
  // rather than failing a directory listing.
  (void)refresh();
  std::vector<std::string> out;
  out.reserve(tree_.size());
  for (const auto& [path, _] : tree_) out.push_back(path);
  return out;
}

bool GdpFilesystem::exists(const std::string& path) {
  (void)refresh();
  return tree_.contains(path);
}

}  // namespace gdp::caapi
