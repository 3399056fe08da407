// CapsuleFS + SCL coverage: the shared Mount entry point across all five
// CAAPIs, multi-writer directory semantics (credential grants, forged /
// expired credential rejection), SCL compare-and-append and tip leases,
// deterministic conflict-resolution replay (byte-identical tree digests
// across replicas AND reruns), the two-client stale-read regression, the
// >=100-writer link-flap convergence workload, and truncation fuzz for
// every wire type the SCL added.
#include <gtest/gtest.h>

#include "caapi/commit.hpp"
#include "caapi/fs.hpp"
#include "caapi/fsload.hpp"
#include "caapi/kv.hpp"
#include "caapi/stream.hpp"
#include "caapi/timeseries.hpp"
#include "capsule/credential.hpp"
#include "capsule/strategy.hpp"
#include "wire/messages.hpp"

namespace gdp::caapi {
namespace {

using harness::Scenario;

struct World {
  Scenario s;
  router::GLookupService* root;
  router::Router* r1;
  router::Router* r2;
  server::CapsuleServer* srv1;
  server::CapsuleServer* srv2;
  client::GdpClient* alice;
  client::GdpClient* bob;
  client::GdpClient* carol;

  explicit World(std::uint64_t seed) : s(seed, "capsulefs") {
    root = s.add_domain("global", nullptr);
    r1 = s.add_router("r1", root);
    r2 = s.add_router("r2", root);
    s.link_routers(r1, r2, net::LinkParams::wan(5));
    srv1 = s.add_server("srv1", r1);
    srv2 = s.add_server("srv2", r2);
    alice = s.add_client("alice", r1);
    bob = s.add_client("bob", r1);
    carol = s.add_client("carol", r2);
    s.attach_all();
  }

  std::vector<server::CapsuleServer*> servers() { return {srv1, srv2}; }
};

Bytes dir_envelope(const GdpFilesystem& fs, const DirRecord& rec) {
  return capsule::wrap_mw_payload(fs.credential(), rec.serialize());
}

DirRecord mkdir_rec(const std::string& path) {
  DirRecord rec;
  rec.type = DirRecord::Type::kMkdir;
  rec.path = path;
  return rec;
}

// ---- Mount across the five CAAPIs ------------------------------------------------

TEST(MountApi, FilesystemCreateWriteReadTree) {
  World w(300);
  auto fs = GdpFilesystem::mount(
      Mount::create(w.s, *w.alice, w.servers(), "home"));
  ASSERT_TRUE(fs.ok()) << fs.error().to_string();
  EXPECT_TRUE(fs->can_write());

  Rng rng(1);
  Bytes doc = rng.next_bytes(3000);
  ASSERT_TRUE(fs->write_file("docs/readme", doc).ok());
  ASSERT_TRUE(fs->mkdir("tmp").ok());
  ASSERT_TRUE(fs->set_attr("tmp", "scratch").ok());
  auto back = fs->read_file("docs/readme");
  ASSERT_TRUE(back.ok()) << back.error().to_string();
  EXPECT_EQ(*back, doc);

  const Name before = fs->tree_digest();
  ASSERT_TRUE(fs->rename("docs/readme", "docs/README").ok());
  EXPECT_NE(fs->tree_digest(), before);
  EXPECT_TRUE(fs->exists("docs/README"));
  EXPECT_FALSE(fs->exists("docs/readme"));
  ASSERT_TRUE(fs->remove("tmp").ok());
  EXPECT_EQ(fs->list(), (std::vector<std::string>{"docs/README"}));
}

TEST(MountApi, FilesystemCreateWithDefaults) {
  World w(301);
  auto fs = GdpFilesystem::create(w.s, *w.alice, {w.srv1}, "defaults-fs");
  ASSERT_TRUE(fs.ok()) << fs.error().to_string();
  ASSERT_TRUE(fs->write_file("f", to_bytes("defaults")).ok());
  EXPECT_EQ(to_string(*fs->read_file("f")), "defaults");
}

TEST(MountApi, KvCreateAndReadOnlyOpen) {
  World w(302);
  MountOptions options;
  options.checkpoint_interval = 4;
  auto kv = GdpKvStore::mount(
      Mount::create(w.s, *w.alice, w.servers(), "config", options));
  ASSERT_TRUE(kv.ok()) << kv.error().to_string();
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(kv->put("key" + std::to_string(i), std::to_string(i)).ok());
  }

  auto view = GdpKvStore::mount(
      Mount::open(w.s, *w.bob, w.servers(), kv->metadata(), options));
  ASSERT_TRUE(view.ok()) << view.error().to_string();
  EXPECT_EQ(view->get("key3"), "3");
  EXPECT_EQ(view->size(), 6u);
  // The capsule is strict-single-writer: the open-existing mount is a view.
  EXPECT_EQ(view->put("key9", "9").code(), Errc::kPermissionDenied);
}

TEST(MountApi, StreamPublisherAndPlayer) {
  World w(303);
  auto pub = StreamPublisher::mount(
      Mount::create(w.s, *w.alice, w.servers(), "video"));
  ASSERT_TRUE(pub.ok()) << pub.error().to_string();

  auto player = StreamPlayer::mount(
      Mount::open(w.s, *w.bob, w.servers(), pub->metadata()));
  ASSERT_TRUE(player.ok());
  const TimePoint now = w.s.sim().now();
  trust::Cert cert =
      pub->setup().sub_cert_for(w.bob->name(), now, now + from_seconds(3600));
  auto join = player->join(cert);
  ASSERT_TRUE(join.ok()) << join.error().to_string();
  for (int i = 0; i < 3; ++i) pub->publish_frame(to_bytes("frame"));
  w.s.settle();
  EXPECT_EQ(player->frames_received(), 3u);
}

TEST(MountApi, TimeSeriesWriterAndReader) {
  World w(304);
  auto writer = TimeSeriesWriter::mount(
      Mount::create(w.s, *w.alice, w.servers(), "temps"));
  ASSERT_TRUE(writer.ok()) << writer.error().to_string();
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(writer->record(20.0 + i).ok());
    w.s.settle_for(from_millis(50));
  }
  auto reader = TimeSeriesReader::mount(
      Mount::open(w.s, *w.bob, w.servers(), writer->metadata()));
  ASSERT_TRUE(reader.ok());
  auto latest = reader->latest(3);
  ASSERT_TRUE(latest.ok()) << latest.error().to_string();
  ASSERT_EQ(latest->size(), 3u);
  EXPECT_DOUBLE_EQ(latest->back().value, 24.0);
}

TEST(MountApi, CommitServiceAndProposer) {
  World w(305);
  auto service = CommitService::mount(
      Mount::create(w.s, *w.carol, w.servers(), "ledger"));
  ASSERT_TRUE(service.ok()) << service.error().to_string();
  Proposer proposer(w.s, *w.bob);
  auto op = proposer.propose((*service)->service_name(), to_bytes("tx-1"));
  auto seqno = client::await(w.s.sim(), op);
  ASSERT_TRUE(seqno.ok()) << seqno.error().to_string();
  EXPECT_EQ(*seqno, 1u);
  EXPECT_EQ((*service)->proposals_committed(), 1u);
}

TEST(MountApi, OpenModeMismatchesRejected) {
  World w(306);
  auto pub_open_fails = StreamPublisher::mount(Mount::open(
      w.s, *w.alice, w.servers(),
      harness::make_capsule(w.s.key_rng(), "x").metadata));
  EXPECT_EQ(pub_open_fails.code(), Errc::kInvalidArgument);
  auto player_create_fails = StreamPlayer::mount(
      Mount::create(w.s, *w.alice, w.servers(), "y"));
  EXPECT_EQ(player_create_fails.code(), Errc::kInvalidArgument);
}

// ---- Multi-writer directory semantics --------------------------------------------

TEST(CapsuleFs, TwoClientStaleReadRegression) {
  World w(310);
  auto owner = GdpFilesystem::mount(
      Mount::create(w.s, *w.alice, w.servers(), "shared"));
  ASSERT_TRUE(owner.ok()) << owner.error().to_string();

  crypto::PrivateKey bob_key = crypto::PrivateKey::generate(w.s.key_rng());
  auto credential = owner->grant_writer(bob_key.public_key(), "bob");
  ASSERT_TRUE(credential.ok());
  auto bob_fs = GdpFilesystem::mount(
      Mount::open(w.s, *w.bob, w.servers(), owner->directory_metadata()),
      *credential, std::move(bob_key));
  ASSERT_TRUE(bob_fs.ok()) << bob_fs.error().to_string();

  // Bob commits a file; Alice must observe it WITHOUT calling refresh() —
  // the regression this guards: exists()/list() used to answer from the
  // local cache until an explicit refresh.
  ASSERT_TRUE(bob_fs->write_file("from-bob.txt", to_bytes("hello")).ok());
  EXPECT_TRUE(owner->exists("from-bob.txt"));
  EXPECT_EQ(owner->list(),
            (std::vector<std::string>{"from-bob.txt"}));
  EXPECT_EQ(to_string(*owner->read_file("from-bob.txt")), "hello");
  EXPECT_EQ(owner->tree_digest(), bob_fs->tree_digest());
}

TEST(CapsuleFs, ReadOnlyMountCannotWrite) {
  World w(312);
  auto owner = GdpFilesystem::mount(
      Mount::create(w.s, *w.alice, w.servers(), "ro"));
  ASSERT_TRUE(owner.ok());
  ASSERT_TRUE(owner->write_file("f", to_bytes("data")).ok());

  auto reader = GdpFilesystem::mount(
      Mount::open(w.s, *w.bob, w.servers(), owner->directory_metadata()));
  ASSERT_TRUE(reader.ok());
  EXPECT_FALSE(reader->can_write());
  EXPECT_TRUE(reader->exists("f"));
  EXPECT_EQ(reader->write_file("g", to_bytes("nope")).code(),
            Errc::kPermissionDenied);
  // Only the owner can mint credentials.
  crypto::PrivateKey key = crypto::PrivateKey::generate(w.s.key_rng());
  EXPECT_EQ(reader->grant_writer(key.public_key(), "evil").code(),
            Errc::kPermissionDenied);
}

TEST(CapsuleFs, ForgedCredentialRejected) {
  World w(313);
  auto owner = GdpFilesystem::mount(
      Mount::create(w.s, *w.alice, w.servers(), "sealed"));
  ASSERT_TRUE(owner.ok());

  // Mallory self-signs a credential with a key that is NOT the owner key.
  crypto::PrivateKey mallory = crypto::PrivateKey::generate(w.s.key_rng());
  capsule::WriterCredential forged = capsule::make_writer_credential(
      mallory, owner->directory_capsule(), mallory.public_key(), "mallory", 0,
      std::numeric_limits<std::int64_t>::max() / 2);
  auto mallory_fs = GdpFilesystem::mount(
      Mount::open(w.s, *w.bob, w.servers(), owner->directory_metadata()),
      forged, std::move(mallory));
  ASSERT_TRUE(mallory_fs.ok());  // mounting is local; the replicas decide
  EXPECT_FALSE(mallory_fs->mkdir("pwned").ok());
  ASSERT_TRUE(owner->refresh().ok());
  EXPECT_FALSE(owner->exists("pwned"));
}

TEST(CapsuleFs, ExpiredCredentialRejected) {
  World w(314);
  auto setup = harness::make_capsule(w.s.key_rng(), "expiring",
                                     capsule::WriterMode::kMultiWriter, "chain");
  ASSERT_TRUE(harness::place_capsule(w.s, setup, *w.alice, w.servers()).ok());

  // Valid only for the first simulated second.
  crypto::PrivateKey key = crypto::PrivateKey::generate(w.s.key_rng());
  capsule::WriterCredential credential = capsule::make_writer_credential(
      *setup.owner_key, setup.metadata.name(), key.public_key(), "shortlived",
      0, from_seconds(1).count());
  capsule::Writer writer(setup.metadata, key, capsule::strategy_from_id("chain"));

  w.s.settle_for(from_seconds(5));  // the window is now over
  Bytes envelope =
      capsule::wrap_mw_payload(credential, mkdir_rec("late").serialize());
  capsule::Record record = writer.append(envelope, w.s.sim().now().count());
  auto op = w.bob->cond_append(setup.metadata, record, 0, setup.metadata.name());
  auto outcome = client::await(w.s.sim(), op);
  EXPECT_FALSE(outcome.ok());  // replica refuses the expired delegation
}

// ---- SCL: compare-and-append and leases ------------------------------------------

TEST(Scl, CasConflictRebasesAndRetries) {
  World w(320);
  auto owner = GdpFilesystem::mount(
      Mount::create(w.s, *w.alice, w.servers(), "contended"));
  ASSERT_TRUE(owner.ok());

  crypto::PrivateKey bob_key = crypto::PrivateKey::generate(w.s.key_rng());
  auto credential = owner->grant_writer(bob_key.public_key(), "bob");
  ASSERT_TRUE(credential.ok());
  auto bob_fs = GdpFilesystem::mount(
      Mount::open(w.s, *w.bob, w.servers(), owner->directory_metadata()),
      *credential, std::move(bob_key));
  ASSERT_TRUE(bob_fs.ok());

  // Alice moves the tip; Bob's session still believes the capsule is
  // empty, so his first CAS loses, rebases onto the nacked tip, retries,
  // and wins — all inside one SclSession::append call.
  ASSERT_TRUE(owner->scl()->append(dir_envelope(*owner, mkdir_rec("a"))).ok());
  auto outcome = bob_fs->scl()->append(dir_envelope(*bob_fs, mkdir_rec("b")));
  ASSERT_TRUE(outcome.ok()) << outcome.error().to_string();
  EXPECT_TRUE(outcome->won);
  EXPECT_EQ(outcome->seqno, 2u);
  EXPECT_EQ(bob_fs->scl()->conflicts(), 1u);

  ASSERT_TRUE(owner->refresh().ok());
  EXPECT_TRUE(owner->exists("a"));
  EXPECT_TRUE(owner->exists("b"));
}

TEST(Scl, CasRetryBudgetExhaustionSurfacesConflict) {
  World w(321);
  auto owner = GdpFilesystem::mount(
      Mount::create(w.s, *w.alice, w.servers(), "starved"));
  ASSERT_TRUE(owner.ok());
  ASSERT_TRUE(owner->scl()->append(dir_envelope(*owner, mkdir_rec("x"))).ok());

  // A writer with a zero retry budget loses once and must give up with
  // kConflict rather than silently retrying.
  crypto::PrivateKey key = crypto::PrivateKey::generate(w.s.key_rng());
  auto credential = owner->grant_writer(key.public_key(), "poor");
  ASSERT_TRUE(credential.ok());
  SclSession::Options options;
  options.retry_budget.min_tokens = 0;
  options.retry_budget.ratio = 0;
  SclSession session(
      w.s, *w.bob, owner->directory_metadata(),
      capsule::Writer(owner->directory_metadata(), key,
                      capsule::strategy_from_id("chain")),
      options);
  Bytes envelope = capsule::wrap_mw_payload(*credential, mkdir_rec("y").serialize());
  auto outcome = session.append(envelope);
  EXPECT_EQ(outcome.code(), Errc::kConflict);
  EXPECT_EQ(session.conflicts(), 1u);
}

TEST(Scl, LeaseLifecycle) {
  World w(322);
  auto setup = harness::make_capsule(w.s.key_rng(), "leased",
                                     capsule::WriterMode::kMultiWriter, "chain");
  ASSERT_TRUE(harness::place_capsule(w.s, setup, *w.alice, w.servers()).ok());
  const capsule::Metadata& meta = setup.metadata;

  // Alice acquires; the grant carries the (empty) tip.
  auto grant = client::await(w.s.sim(),
                             w.alice->lease_acquire(meta, from_seconds(2)));
  ASSERT_TRUE(grant.ok()) << grant.error().to_string();
  EXPECT_TRUE(grant->granted);
  EXPECT_EQ(grant->holder, w.alice->name());
  EXPECT_EQ(grant->tip_seqno, 0u);
  EXPECT_EQ(grant->tip_hash, meta.name());

  // Bob is denied while the lease is live, and his un-leased CAS is
  // nacked with kLeaseHeld.
  auto denied = client::await(w.s.sim(),
                              w.bob->lease_acquire(meta, from_seconds(2)));
  ASSERT_TRUE(denied.ok());
  EXPECT_FALSE(denied->granted);
  EXPECT_EQ(denied->code, Errc::kLeaseHeld);
  EXPECT_EQ(denied->holder, w.alice->name());

  crypto::PrivateKey bob_key = crypto::PrivateKey::generate(w.s.key_rng());
  capsule::WriterCredential bob_cred = capsule::make_writer_credential(
      *setup.owner_key, meta.name(), bob_key.public_key(), "bob", 0,
      std::numeric_limits<std::int64_t>::max() / 2);
  capsule::Writer bob_writer(meta, bob_key, capsule::strategy_from_id("chain"));
  Bytes envelope =
      capsule::wrap_mw_payload(bob_cred, mkdir_rec("blocked").serialize());
  capsule::Record record = bob_writer.append(envelope, w.s.sim().now().count());
  auto nacked = client::await(
      w.s.sim(), w.bob->cond_append(meta, record, 0, meta.name()));
  ASSERT_TRUE(nacked.ok());
  EXPECT_FALSE(nacked->won);
  EXPECT_EQ(nacked->code, Errc::kLeaseHeld);
  EXPECT_EQ(nacked->lease_holder, w.alice->name());

  // Renewal extends, release frees, and Bob can then take the lease.
  auto renewed = client::await(
      w.s.sim(), w.alice->lease_renew(meta, grant->lease_id, from_seconds(2)));
  ASSERT_TRUE(renewed.ok());
  EXPECT_TRUE(renewed->granted);
  EXPECT_EQ(renewed->lease_id, grant->lease_id);
  auto released = client::await(
      w.s.sim(), w.alice->lease_release(meta, grant->lease_id));
  ASSERT_TRUE(released.ok());
  EXPECT_TRUE(released->granted);
  auto bob_grant = client::await(w.s.sim(),
                                 w.bob->lease_acquire(meta, from_millis(100)));
  ASSERT_TRUE(bob_grant.ok());
  EXPECT_TRUE(bob_grant->granted);
  EXPECT_NE(bob_grant->lease_id, grant->lease_id);

  // Expiry: once Bob's short lease lapses, Alice acquires without release.
  w.s.settle_for(from_seconds(1));
  auto after_expiry = client::await(
      w.s.sim(), w.alice->lease_acquire(meta, from_seconds(1)));
  ASSERT_TRUE(after_expiry.ok());
  EXPECT_TRUE(after_expiry->granted);
}

// ---- Deterministic replay --------------------------------------------------------

Name blind_branch_workload(std::uint64_t seed) {
  World w(seed);
  auto owner = GdpFilesystem::mount(
      Mount::create(w.s, *w.alice, w.servers(), "branches"));
  EXPECT_TRUE(owner.ok());

  // Three credentialed writers extend three independent branches with
  // overlapping seqnos: replay order must not depend on arrival order.
  std::vector<client::GdpClient*> clients{w.alice, w.bob, w.carol};
  std::vector<client::OpPtr<client::AppendOutcome>> ops;
  std::vector<std::unique_ptr<SclSession>> sessions;
  for (std::size_t i = 0; i < 3; ++i) {
    crypto::PrivateKey key = crypto::PrivateKey::generate(w.s.key_rng());
    auto credential = owner->grant_writer(key.public_key(), "b" + std::to_string(i));
    EXPECT_TRUE(credential.ok());
    sessions.push_back(std::make_unique<SclSession>(
        w.s, *clients[i], owner->directory_metadata(),
        capsule::Writer(owner->directory_metadata(), key,
                        capsule::strategy_from_id("chain"))));
    for (std::size_t k = 0; k < 4; ++k) {
      Bytes envelope = capsule::wrap_mw_payload(
          *credential,
          mkdir_rec("w" + std::to_string(i) + "/n" + std::to_string(k))
              .serialize());
      ops.push_back(sessions.back()->blind_append(envelope));
    }
  }
  w.s.settle();
  for (auto& op : ops) {
    auto outcome = client::await(w.s.sim(), op);
    EXPECT_TRUE(outcome.ok());
  }
  w.s.settle_for(from_seconds(10));  // anti-entropy merges every branch

  // Every replica replays to the same digest as the verified read path.
  EXPECT_TRUE(owner->refresh().ok());
  const Name digest = owner->tree_digest();
  for (server::CapsuleServer* server : w.servers()) {
    const store::CapsuleStore* cs =
        server->storage().find(owner->directory_capsule());
    EXPECT_NE(cs, nullptr);
    if (cs == nullptr) continue;
    auto replica = GdpFilesystem::replay_digest(owner->directory_metadata(),
                                                cs->state().export_records());
    EXPECT_TRUE(replica.ok());
    EXPECT_EQ(*replica, digest);
  }
  EXPECT_EQ(owner->tree().size(), 12u);
  return digest;
}

TEST(CapsuleFs, DeterministicReplayAcrossReplicasAndReruns) {
  const Name first = blind_branch_workload(330);
  const Name second = blind_branch_workload(330);
  EXPECT_EQ(first.hex(), second.hex());  // byte-identical rerun
}

// ---- The acceptance workload: >=100 writers through link flaps -------------------

TEST(CapsuleFs, MultiWriterFlapConvergence) {
  auto run = [](std::uint64_t seed) {
    World w(seed);
    auto owner = GdpFilesystem::mount(
        Mount::create(w.s, *w.alice, w.servers(), "warzone"));
    EXPECT_TRUE(owner.ok());

    FsLoadOptions options;
    options.writers = 120;
    options.ops_per_writer = 2;
    options.concurrency = GdpFilesystem::Concurrency::kBlind;
    options.max_rounds = 12;
    options.final_settle = from_seconds(60);
    options.on_round = [&w](std::size_t round) {
      if (round == 0) {
        // Partition the second replica mid-burst, twice.
        w.s.flap_link(w.srv2->name(), w.r2->name(), from_millis(5),
                      from_millis(400));
        w.s.flap_link(w.r1->name(), w.r2->name(), from_millis(600),
                      from_millis(400));
      }
    };
    auto report = run_fs_load(w.s, *owner, w.servers(),
                              {w.alice, w.bob, w.carol}, options);
    EXPECT_TRUE(report.ok()) << report.error().to_string();
    EXPECT_TRUE(report->converged);
    EXPECT_EQ(report->failures, 0u);
    EXPECT_EQ(report->committed, 240u);
    EXPECT_EQ(report->replica_digests.size(), 2u);
    EXPECT_EQ(report->client_digest, report->replica_digests[0]);
    return report->client_digest;
  };
  const Name first = run(331);
  const Name second = run(331);
  EXPECT_EQ(first.hex(), second.hex());  // rerun is byte-identical
}

TEST(CapsuleFs, CasContentionConvergesToo) {
  World w(332);
  auto owner = GdpFilesystem::mount(
      Mount::create(w.s, *w.alice, w.servers(), "cas-herd"));
  ASSERT_TRUE(owner.ok());
  FsLoadOptions options;
  options.writers = 16;
  options.ops_per_writer = 2;
  options.concurrency = GdpFilesystem::Concurrency::kCas;
  options.max_rounds = 64;
  options.final_settle = from_seconds(30);
  auto report =
      run_fs_load(w.s, *owner, w.servers(), {w.alice, w.bob}, options);
  ASSERT_TRUE(report.ok()) << report.error().to_string();
  EXPECT_TRUE(report->converged);
  EXPECT_EQ(report->failures, 0u);
  EXPECT_GT(report->conflicts, 0u);  // the herd actually contended
  EXPECT_EQ(report->client_digest, report->replica_digests[0]);
}

// ---- Wire fuzz for the SCL types -------------------------------------------------

Name name_of(std::uint8_t tag) {
  Bytes raw(32, tag);
  return *Name::from_bytes(raw);
}

capsule::Record sample_record() {
  static Rng rng(77);
  static auto owner = crypto::PrivateKey::generate(rng);
  static auto writer_key = crypto::PrivateKey::generate(rng);
  static auto metadata = capsule::Metadata::create(
      owner, writer_key.public_key(), capsule::WriterMode::kMultiWriter,
      "scl-fuzz", 0);
  static capsule::Writer writer(*metadata, writer_key,
                                capsule::make_chain_strategy());
  return writer.append(to_bytes("payload"), 1);
}

/// Serializes, re-parses, and sweeps truncations expecting rejection —
/// the PR8/PR9 wire-fuzz idiom.
template <typename Msg>
Msg round_trip_and_truncate(const Msg& msg) {
  Bytes wire_bytes = msg.serialize();
  auto back = Msg::deserialize(wire_bytes);
  EXPECT_TRUE(back.ok()) << back.error().to_string();
  for (std::size_t cut = 0; cut < wire_bytes.size();
       cut += 1 + wire_bytes.size() / 37) {
    EXPECT_FALSE(Msg::deserialize(BytesView(wire_bytes.data(), cut)).ok())
        << "cut=" << cut;
  }
  Bytes extended = wire_bytes;
  extended.push_back(0x5a);
  EXPECT_FALSE(Msg::deserialize(extended).ok());
  return std::move(back).value();
}

TEST(SclWire, CondAppendFuzz) {
  wire::CondAppendMsg msg;
  msg.capsule = name_of(1);
  msg.record = sample_record();
  msg.expected_tip_seqno = 41;
  msg.expected_tip_hash = name_of(2);
  msg.required_acks = 2;
  msg.lease_id = 77;
  msg.nonce = 9;
  msg.session_pubkey = Bytes(64, 0x21);
  auto back = round_trip_and_truncate(msg);
  EXPECT_EQ(back.record, msg.record);
  EXPECT_EQ(back.expected_tip_seqno, 41u);
  EXPECT_EQ(back.expected_tip_hash, name_of(2));
  EXPECT_EQ(back.lease_id, 77u);
}

TEST(SclWire, CasNackFuzz) {
  wire::CasNackMsg msg;
  msg.capsule = name_of(3);
  msg.code = static_cast<std::uint16_t>(Errc::kConflict);
  msg.error = "CONFLICT: tip moved";
  msg.tip_seqno = 12;
  msg.tip_hash = name_of(4);
  msg.lease_holder = name_of(5);
  msg.lease_expires_ns = 123456789;
  msg.nonce = 3;
  msg.server_principal = to_bytes("principal");
  msg.delegation = to_bytes("delegation");
  msg.auth.kind = wire::ResponseAuth::Kind::kSignature;
  msg.auth.bytes = Bytes(64, 0x02);
  auto back = round_trip_and_truncate(msg);
  EXPECT_EQ(back.tip_seqno, 12u);
  EXPECT_EQ(back.tip_hash, name_of(4));
  EXPECT_EQ(back.lease_holder, name_of(5));
  // The rebase tip is inside the signed body: tampering must change it.
  EXPECT_EQ(back.signed_body(), msg.signed_body());
  wire::CasNackMsg tampered = msg;
  tampered.tip_seqno = 13;
  EXPECT_NE(tampered.signed_body(), msg.signed_body());
}

TEST(SclWire, LeaseRequestFuzz) {
  wire::LeaseRequestMsg msg;
  msg.capsule = name_of(6);
  msg.op = wire::LeaseRequestMsg::kRenew;
  msg.holder = name_of(7);
  msg.lease_id = 5;
  msg.duration_ns = from_seconds(2).count();
  msg.nonce = 8;
  msg.session_pubkey = Bytes(64, 0x22);
  auto back = round_trip_and_truncate(msg);
  EXPECT_EQ(back.op, wire::LeaseRequestMsg::kRenew);
  EXPECT_EQ(back.holder, name_of(7));
  EXPECT_EQ(back.duration_ns, from_seconds(2).count());
}

TEST(SclWire, LeaseGrantFuzz) {
  wire::LeaseGrantMsg msg;
  msg.capsule = name_of(8);
  msg.ok = true;
  msg.code = 0;
  msg.lease_id = 15;
  msg.holder = name_of(9);
  msg.expires_ns = 777;
  msg.tip_seqno = 4;
  msg.tip_hash = name_of(10);
  msg.nonce = 2;
  msg.server_principal = to_bytes("principal");
  msg.delegation = to_bytes("delegation");
  msg.auth.kind = wire::ResponseAuth::Kind::kHmac;
  msg.auth.bytes = Bytes(32, 0x03);
  auto back = round_trip_and_truncate(msg);
  EXPECT_TRUE(back.ok);
  EXPECT_EQ(back.lease_id, 15u);
  EXPECT_EQ(back.tip_hash, name_of(10));
  EXPECT_EQ(back.signed_body(), msg.signed_body());
  wire::LeaseGrantMsg tampered = msg;
  tampered.holder = name_of(11);
  EXPECT_NE(tampered.signed_body(), msg.signed_body());
}

TEST(SclWire, WriterCredentialFuzz) {
  Rng rng(41);
  auto owner = crypto::PrivateKey::generate(rng);
  auto writer = crypto::PrivateKey::generate(rng);
  capsule::WriterCredential credential = capsule::make_writer_credential(
      owner, name_of(12), writer.public_key(), "branch-a", 100, 200);
  Bytes bytes = credential.serialize();
  auto back = capsule::WriterCredential::deserialize(bytes);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, credential);
  EXPECT_TRUE(back->verify(owner.public_key(), 150).ok());
  EXPECT_FALSE(back->verify(owner.public_key(), 250).ok());  // window
  EXPECT_FALSE(back->verify(writer.public_key(), 150).ok());  // wrong issuer
  for (std::size_t cut = 0; cut < bytes.size(); cut += 1 + bytes.size() / 37) {
    EXPECT_FALSE(
        capsule::WriterCredential::deserialize(BytesView(bytes.data(), cut)).ok())
        << "cut=" << cut;
  }
}

TEST(SclWire, DirRecordFuzz) {
  for (std::uint8_t t = 1; t <= 6; ++t) {
    DirRecord rec;
    rec.type = static_cast<DirRecord::Type>(t);
    rec.path = "a/b/c";
    rec.target = "d/e";
    rec.file_metadata = to_bytes("meta");
    rec.chunk_count = 3;
    Bytes bytes = rec.serialize();
    auto back = DirRecord::deserialize(bytes);
    ASSERT_TRUE(back.ok()) << "type=" << int(t);
    EXPECT_EQ(*back, rec);
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
      EXPECT_FALSE(DirRecord::deserialize(BytesView(bytes.data(), cut)).ok())
          << "type=" << int(t) << " cut=" << cut;
    }
    Bytes extended = bytes;
    extended.push_back(0x00);
    EXPECT_FALSE(DirRecord::deserialize(extended).ok());
  }
  Bytes bad{static_cast<std::uint8_t>(99)};
  EXPECT_FALSE(DirRecord::deserialize(bad).ok());
}

}  // namespace
}  // namespace gdp::caapi
