// Exhaustive wire-format coverage: every protocol message's encoding and
// every signed body pinned byte for byte, every proper prefix and trailing
// byte rejected, the decoder's bounds (list caps, enum maxima, tags, nested
// records), plus cancellable-timer semantics on the simulator (which the
// client's guard timeouts depend on).
#include <gtest/gtest.h>

#include <initializer_list>

#include "capsule/strategy.hpp"
#include "capsule/writer.hpp"
#include "common/rng.hpp"
#include "net/sim.hpp"
#include "wire/messages.hpp"

namespace gdp::wire {
namespace {

Name name_of(std::uint8_t tag) {
  Bytes raw(32, tag);
  return *Name::from_bytes(raw);
}

capsule::Record sample_record() {
  static Rng rng(99);
  static auto owner = crypto::PrivateKey::generate(rng);
  static auto writer_key = crypto::PrivateKey::generate(rng);
  static auto metadata = capsule::Metadata::create(
      owner, writer_key.public_key(), capsule::WriterMode::kStrictSingleWriter,
      "wire-test", 0);
  static capsule::Writer writer(*metadata, writer_key,
                                capsule::make_chain_strategy());
  return writer.append(to_bytes("sample"), 1);
}

// ---- Expected bytes, spelled field by field -----------------------------------------
//
// These helpers build hex without the codec under test, so a layout change
// that encoder and decoder agree on (which a round trip cannot catch) still
// fails here.  A nested Record is opaque to the message layout and appears
// as its own serialization.

std::string hex_byte(unsigned b) {
  static constexpr char kDigits[] = "0123456789abcdef";
  return {kDigits[(b >> 4) & 0xf], kDigits[b & 0xf]};
}

/// Little-endian fixed-width integer.
std::string le(std::uint64_t v, int width) {
  std::string s;
  for (int i = 0; i < width; ++i, v >>= 8) s += hex_byte(v & 0xff);
  return s;
}
std::string u8(std::uint8_t v) { return le(v, 1); }
std::string u16(std::uint16_t v) { return le(v, 2); }
std::string u32(std::uint32_t v) { return le(v, 4); }
std::string u64(std::uint64_t v) { return le(v, 8); }

/// A Name: 32 raw bytes.
std::string nm(std::uint8_t b) {
  std::string s;
  for (std::size_t i = 0; i < Name::kSize; ++i) s += hex_byte(b);
  return s;
}

/// Varint length, then the bytes.
std::string lp(BytesView b) {
  std::string s;
  std::uint64_t n = b.size();
  for (; n >= 0x80; n >>= 7) s += hex_byte((n & 0x7f) | 0x80);
  return s + hex_byte(static_cast<unsigned>(n)) + hex_encode(b);
}
std::string str(std::string_view s) { return lp(to_bytes(s)); }
std::string rec(const capsule::Record& r) { return lp(r.serialize()); }
/// A signed body's type tag: raw bytes, no length.
std::string tag(std::string_view s) { return hex_encode(to_bytes(s)); }

std::string join(std::initializer_list<std::string> fields) {
  std::string s;
  for (const std::string& f : fields) s += f;
  return s;
}

template <typename Msg>
void expect_rejected(BytesView b, const char* what) {
  EXPECT_EQ(Msg::deserialize(b).code(), Errc::kInvalidArgument) << what;
}

/// Checks `msg` encodes to `fields` (in wire order), decodes back to the
/// same bytes, and that every proper prefix and any trailing byte are
/// rejected.  Returns the decoded message.
template <typename Msg>
Msg expect_pinned(const Msg& msg, std::initializer_list<std::string> fields) {
  const Bytes wire_bytes = msg.serialize();
  EXPECT_EQ(hex_encode(wire_bytes), join(fields));
  auto back = Msg::deserialize(wire_bytes);
  EXPECT_TRUE(back.ok()) << back.error().to_string();
  if (!back.ok()) return Msg{};
  EXPECT_EQ(back->serialize(), wire_bytes);
  for (std::size_t cut = 0; cut < wire_bytes.size(); ++cut) {
    EXPECT_EQ(Msg::deserialize(BytesView(wire_bytes.data(), cut)).code(),
              Errc::kInvalidArgument)
        << "cut=" << cut;
  }
  Bytes extended = wire_bytes;
  extended.push_back(0x5a);
  expect_rejected<Msg>(extended, "trailing byte");
  return std::move(back).value();
}

// ---- Client -> server ---------------------------------------------------------------

TEST(WireMessages, CreateCapsule) {
  CreateCapsuleMsg msg;
  msg.metadata = to_bytes("meta-bytes");
  msg.delegation = to_bytes("delegation-bytes");
  msg.replica_peers = {name_of(1), name_of(2)};
  msg.nonce = 42;
  auto back = expect_pinned(msg, {str("meta-bytes"), str("delegation-bytes"), u8(2),
                                  nm(1), nm(2), u64(42)});
  EXPECT_EQ(back.metadata, msg.metadata);
  EXPECT_EQ(back.replica_peers, msg.replica_peers);
  EXPECT_EQ(back.nonce, 42u);
}

TEST(WireMessages, Append) {
  AppendMsg msg;
  msg.capsule = name_of(3);
  msg.record = sample_record();
  msg.required_acks = 2;
  msg.nonce = 7;
  msg.session_pubkey = Bytes(64, 0x20);
  auto back = expect_pinned(msg, {nm(3), rec(msg.record), u32(2), u64(7),
                                  lp(Bytes(64, 0x20))});
  EXPECT_EQ(back.record, msg.record);
  EXPECT_EQ(back.session_pubkey, msg.session_pubkey);
}

TEST(WireMessages, Read) {
  ReadMsg msg;
  msg.capsule = name_of(4);
  msg.first_seqno = 10;
  msg.last_seqno = 20;
  msg.nonce = 5;
  msg.session_pubkey = Bytes(64, 0x21);
  auto back = expect_pinned(msg, {nm(4), u64(10), u64(20), u64(5),
                                  lp(Bytes(64, 0x21))});
  EXPECT_EQ(back.first_seqno, 10u);
  EXPECT_EQ(back.last_seqno, 20u);
}

TEST(WireMessages, Subscribe) {
  SubscribeMsg msg;
  msg.capsule = name_of(5);
  msg.subscriber = name_of(6);
  msg.sub_cert = to_bytes("cert");
  msg.nonce = 9;
  auto back = expect_pinned(msg, {nm(5), nm(6), str("cert"), u64(9)});
  EXPECT_EQ(back.subscriber, name_of(6));
}

// ---- Server -> client ---------------------------------------------------------------

TEST(WireMessages, AppendAck) {
  AppendAckMsg msg;
  msg.capsule = name_of(7);
  msg.record_hash = name_of(8);
  msg.seqno = 11;
  msg.acks = 3;
  msg.ok = true;
  msg.error = "e";
  msg.nonce = 1;
  msg.server_principal = to_bytes("principal");
  msg.delegation = to_bytes("delegation");
  msg.auth.kind = ResponseAuth::Kind::kSignature;
  msg.auth.bytes = Bytes(64, 0x01);
  const std::string body = join({tag("gdp.append-ack.v1"), nm(7), nm(8), u64(11),
                                 u32(3), u8(1), str("e"), u64(1)});
  EXPECT_EQ(hex_encode(msg.signed_body()), body);
  auto back = expect_pinned(msg, {body, str("principal"), str("delegation"), u8(1),
                                  lp(Bytes(64, 0x01))});
  EXPECT_EQ(back.acks, 3u);
  EXPECT_EQ(back.auth.kind, ResponseAuth::Kind::kSignature);
  // signed_body excludes the evidence and authenticator.
  EXPECT_EQ(back.signed_body(), msg.signed_body());
  AppendAckMsg changed = msg;
  changed.acks = 4;
  EXPECT_NE(changed.signed_body(), msg.signed_body());
}

TEST(WireMessages, ReadResponse) {
  ReadResponseMsg msg;
  msg.capsule = name_of(9);
  msg.ok = false;
  msg.code = 0x0102;
  msg.error = "NOT_FOUND: nope";
  msg.proof = to_bytes("proofbytes");
  msg.heartbeat = to_bytes("hb");
  msg.branch_records = {to_bytes("br1"), to_bytes("br2")};
  msg.nonce = 77;
  msg.server_principal = to_bytes("principal");
  msg.delegation = to_bytes("delegation");
  msg.auth.kind = ResponseAuth::Kind::kHmac;
  msg.auth.bytes = Bytes(32, 0x02);
  const std::string body =
      join({tag("gdp.read-resp.v1"), nm(9), u8(0), u32(0x0102), str("NOT_FOUND: nope"),
            str("proofbytes"), str("hb"), u8(2), str("br1"), str("br2"), u64(77)});
  EXPECT_EQ(hex_encode(msg.signed_body()), body);
  auto back = expect_pinned(msg, {body, str("principal"), str("delegation"), u8(2),
                                  lp(Bytes(32, 0x02))});
  EXPECT_EQ(back.error, msg.error);
  EXPECT_EQ(back.branch_records, msg.branch_records);
  EXPECT_EQ(back.auth.bytes, msg.auth.bytes);
}

TEST(WireMessages, Publish) {
  PublishMsg msg;
  msg.capsule = name_of(10);
  msg.record = sample_record();
  msg.heartbeat = to_bytes("hb");
  auto back = expect_pinned(msg, {nm(10), rec(msg.record), str("hb")});
  EXPECT_EQ(back.record, msg.record);
}

TEST(WireMessages, StatusCarriesErrc) {
  StatusMsg msg;
  msg.ok = false;
  msg.code = static_cast<std::uint16_t>(Errc::kPermissionDenied);
  msg.message = "no AdCert";
  msg.nonce = 2;
  auto back = expect_pinned(msg, {u8(0), u16(5), str("no AdCert"), u64(2)});
  EXPECT_EQ(static_cast<Errc>(back.code), Errc::kPermissionDenied);
}

// ---- SCL: compare-and-append and tip leases -----------------------------------------

TEST(WireMessages, CondAppend) {
  CondAppendMsg msg;
  msg.capsule = name_of(1);
  msg.record = sample_record();
  msg.expected_tip_seqno = 41;
  msg.expected_tip_hash = name_of(2);
  msg.required_acks = 2;
  msg.lease_id = 77;
  msg.nonce = 9;
  msg.session_pubkey = Bytes(64, 0x21);
  auto back = expect_pinned(msg, {nm(1), rec(msg.record), u64(41), nm(2), u32(2),
                                  u64(77), u64(9), lp(Bytes(64, 0x21))});
  EXPECT_EQ(back.record, msg.record);
}

TEST(WireMessages, CasNack) {
  CasNackMsg msg;
  msg.capsule = name_of(3);
  msg.code = static_cast<std::uint16_t>(Errc::kConflict);
  msg.error = "CONFLICT: tip moved";
  msg.tip_seqno = 12;
  msg.tip_hash = name_of(4);
  msg.lease_holder = name_of(5);
  msg.lease_expires_ns = -2;
  msg.nonce = 3;
  msg.server_principal = to_bytes("principal");
  msg.delegation = to_bytes("delegation");
  msg.auth.kind = ResponseAuth::Kind::kSignature;
  msg.auth.bytes = Bytes(64, 0x02);
  const std::string body =
      join({tag("gdp.cas-nack.v1"), nm(3), u32(11), str("CONFLICT: tip moved"), u64(12),
            nm(4), nm(5), "feffffffffffffff", u64(3)});
  EXPECT_EQ(hex_encode(msg.signed_body()), body);
  auto back = expect_pinned(msg, {body, str("principal"), str("delegation"), u8(1),
                                  lp(Bytes(64, 0x02))});
  EXPECT_EQ(back.lease_expires_ns, -2);
}

TEST(WireMessages, LeaseRequest) {
  LeaseRequestMsg msg;
  msg.capsule = name_of(6);
  msg.op = LeaseRequestMsg::kRelease;
  msg.holder = name_of(7);
  msg.lease_id = 5;
  msg.duration_ns = 2'000'000'000;
  msg.nonce = 8;
  msg.session_pubkey = Bytes(64, 0x22);
  auto back = expect_pinned(msg, {nm(6), u8(2), nm(7), u64(5), u64(2'000'000'000),
                                  u64(8), lp(Bytes(64, 0x22))});
  EXPECT_EQ(back.op, LeaseRequestMsg::kRelease);
}

TEST(WireMessages, LeaseGrant) {
  LeaseGrantMsg msg;
  msg.capsule = name_of(8);
  msg.ok = true;
  msg.code = static_cast<std::uint16_t>(Errc::kLeaseHeld);
  msg.error = "held";
  msg.lease_id = 15;
  msg.holder = name_of(9);
  msg.expires_ns = 777;
  msg.tip_seqno = 4;
  msg.tip_hash = name_of(10);
  msg.nonce = 2;
  msg.server_principal = to_bytes("principal");
  msg.delegation = to_bytes("delegation");
  msg.auth.kind = ResponseAuth::Kind::kHmac;
  msg.auth.bytes = Bytes(32, 0x03);
  const std::string body =
      join({tag("gdp.lease-grant.v1"), nm(8), u8(1), u32(12), str("held"), u64(15), nm(9),
            u64(777), u64(4), nm(10), u64(2)});
  EXPECT_EQ(hex_encode(msg.signed_body()), body);
  auto back = expect_pinned(msg, {body, str("principal"), str("delegation"), u8(2),
                                  lp(Bytes(32, 0x03))});
  EXPECT_EQ(back.tip_hash, name_of(10));
}

// ---- Anti-entropy -------------------------------------------------------------------

TEST(WireMessages, SyncPullPush) {
  SyncPullMsg pull;
  pull.capsule = name_of(11);
  pull.tip_seqno = 99;
  pull.holes = {name_of(12)};
  auto pull_back = expect_pinned(pull, {nm(11), u64(99), u8(1), nm(12)});
  EXPECT_EQ(pull_back.holes, pull.holes);

  SyncPushMsg push;
  push.capsule = name_of(11);
  push.records = {to_bytes("rec1"), to_bytes("rec2")};
  push.resume_cursor = 257;
  auto push_back =
      expect_pinned(push, {nm(11), u8(2), str("rec1"), str("rec2"), u64(257)});
  EXPECT_EQ(push_back.records, push.records);
  EXPECT_EQ(push_back.resume_cursor, 257u);
}

TEST(WireMessages, SyncSummaryDescendRange) {
  SyncSummaryMsg summary;
  summary.capsule = name_of(21);
  summary.tip_seqno = 1'000'000;
  summary.tip_hash = name_of(22);
  summary.root_hash = name_of(23);
  auto summary_back =
      expect_pinned(summary, {nm(21), u64(1'000'000), nm(22), nm(23)});
  EXPECT_EQ(summary_back.tip_seqno, 1'000'000u);
  EXPECT_EQ(summary_back.root_hash, summary.root_hash);

  SyncDescendMsg descend;
  descend.capsule = name_of(21);
  descend.kind = SyncDescendMsg::kRequest;
  descend.tip_seqno = 777;
  descend.nodes = {TreeNode{1, 64, name_of(24)},
                   TreeNode{65, 128, name_of(25)}};
  auto descend_back =
      expect_pinned(descend, {nm(21), u8(1), u64(777), u8(2), u64(1), u64(64), nm(24),
                              u64(65), u64(128), nm(25)});
  EXPECT_EQ(descend_back.kind, SyncDescendMsg::kRequest);
  EXPECT_EQ(descend_back.nodes, descend.nodes);

  SyncRangeMsg range;
  range.capsule = name_of(21);
  range.ranges = {SyncRangeMsg::Range{1, 64}, SyncRangeMsg::Range{1025, 2048}};
  range.holes = {name_of(26)};
  range.cursor = 1500;
  auto range_back =
      expect_pinned(range, {nm(21), u8(2), u64(1), u64(64), u64(1025), u64(2048), u8(1),
                            nm(26), u64(1500)});
  EXPECT_EQ(range_back.ranges, range.ranges);
  EXPECT_EQ(range_back.holes, range.holes);
  EXPECT_EQ(range_back.cursor, 1500u);
}

// ---- Secure advertisement and GLookupService ----------------------------------------

TEST(WireMessages, AdvertisementHandshake) {
  AdvertiseMsg ad;
  ad.principal = to_bytes("principal");
  ad.catalog_records = {to_bytes("ad1"), to_bytes("ad2"), to_bytes("ext")};
  auto ad_back = expect_pinned(ad, {str("principal"), u8(3), str("ad1"), str("ad2"),
                                    str("ext")});
  EXPECT_EQ(ad_back.catalog_records.size(), 3u);

  ChallengeMsg challenge;
  challenge.nonce = Bytes(32, 0xcc);
  auto c_back = expect_pinned(challenge, {lp(Bytes(32, 0xcc))});
  EXPECT_EQ(c_back.nonce, challenge.nonce);

  ChallengeReplyMsg reply;
  reply.principal = to_bytes("p");
  reply.nonce_sig = Bytes(64, 0x03);
  reply.rt_cert = to_bytes("rtcert");
  auto r_back = expect_pinned(reply, {str("p"), lp(Bytes(64, 0x03)), str("rtcert")});
  EXPECT_EQ(r_back.rt_cert, reply.rt_cert);

  AdvertiseOkMsg ok_msg;
  ok_msg.ok = true;
  ok_msg.message = "welcome";
  ok_msg.accepted = 5;
  auto ok_back = expect_pinned(ok_msg, {u8(1), str("welcome"), u32(5)});
  EXPECT_EQ(ok_back.accepted, 5u);
}

TEST(WireMessages, Lookup) {
  LookupMsg msg;
  msg.target = name_of(13);
  msg.querying_router = name_of(14);
  msg.nonce = 21;
  auto back = expect_pinned(msg, {nm(13), nm(14), u64(21)});
  EXPECT_EQ(back.target, name_of(13));
}

TEST(WireMessages, LookupReply) {
  LookupReplyMsg msg;
  msg.found = true;
  msg.target = name_of(0x10);
  msg.attachment_router = name_of(0x11);
  msg.next_hop = name_of(0x12);
  msg.cost_us = 1500;
  msg.nonce = 77;
  msg.expires_ns = 123456789;
  msg.evidence = to_bytes("ev0");
  msg.principal = to_bytes("pr0");
  for (std::uint8_t i = 0; i < 2; ++i) {
    LookupReplyMsg::ReplicaOption opt;
    opt.attachment_router = name_of(0x20 + i);
    opt.next_hop = name_of(0x30 + i);
    opt.cost_us = 2000 + i;
    opt.expires_ns = 999 + i;
    opt.evidence = to_bytes("ev" + std::to_string(i + 1));
    opt.principal = to_bytes("pr" + std::to_string(i + 1));
    msg.alternates.push_back(opt);
  }
  auto back = expect_pinned(
      msg, {u8(1), nm(0x10), nm(0x11), nm(0x12), u32(1500), u64(77), u64(123456789),
            str("ev0"), str("pr0"), u32(2),
            nm(0x20), nm(0x30), u32(2000), u64(999), str("ev1"), str("pr1"),
            nm(0x21), nm(0x31), u32(2001), u64(1000), str("ev2"), str("pr2")});
  ASSERT_EQ(back.alternates.size(), 2u);
  EXPECT_EQ(back.alternates[1].principal, to_bytes("pr2"));
}

TEST(WireMessages, LoadReport) {
  LoadReportMsg msg;
  msg.server = name_of(0x40);
  msg.queue_depth = 17;
  msg.shed_level = 2;
  msg.expected_delay_ns = 5100000;
  auto back = expect_pinned(msg, {nm(0x40), u32(17), u32(2), u64(5100000)});
  EXPECT_EQ(back.expected_delay_ns, 5100000u);
}

// ---- Decoder bounds -----------------------------------------------------------------

/// `cap` items in `list` decode; one more is rejected.
template <typename Msg, typename Item>
void expect_list_cap(std::vector<Item> Msg::*list, std::size_t cap, const Item& item) {
  Msg msg;
  (msg.*list).assign(cap, item);
  EXPECT_TRUE(Msg::deserialize(msg.serialize()).ok()) << "at cap " << cap;
  (msg.*list).push_back(item);
  expect_rejected<Msg>(msg.serialize(), "over cap");
}

TEST(WireMessages, ListCapsEnforced) {
  const Name n = name_of(1);
  expect_list_cap(&CreateCapsuleMsg::replica_peers, 100000, n);
  expect_list_cap(&SyncPullMsg::holes, 100000, n);
  expect_list_cap(&SyncRangeMsg::holes, 100000, n);
  expect_list_cap(&SyncPushMsg::records, 100000, Bytes{});
  expect_list_cap(&ReadResponseMsg::branch_records, 100000, Bytes{});
  expect_list_cap(&AdvertiseMsg::catalog_records, 100000, Bytes{});
  expect_list_cap(&SyncDescendMsg::nodes, 4096, TreeNode{1, 2, n});
  expect_list_cap(&SyncRangeMsg::ranges, 4096, SyncRangeMsg::Range{1, 2});
}

TEST(WireMessages, EnumBytesAboveMaximumRejected) {
  LeaseRequestMsg lease;
  lease.op = LeaseRequestMsg::kRelease + 1;
  expect_rejected<LeaseRequestMsg>(lease.serialize(), "lease op");

  SyncDescendMsg descend;
  descend.kind = SyncDescendMsg::kRequest + 1;
  expect_rejected<SyncDescendMsg>(descend.serialize(), "descend kind");
  Bytes bad = descend.serialize();
  bad[Name::kSize] = 7;
  expect_rejected<SyncDescendMsg>(bad, "descend kind 7");
}

/// A signed response: an auth kind above kHmac, or any changed byte of its
/// `tag_size`-byte tag, is rejected.
template <typename Msg>
void expect_signed_bounds(std::size_t tag_size) {
  Msg msg;
  msg.auth.kind = ResponseAuth::Kind::kHmac;
  const Bytes good = msg.serialize();
  EXPECT_TRUE(Msg::deserialize(good).ok());
  msg.auth.kind = static_cast<ResponseAuth::Kind>(3);
  expect_rejected<Msg>(msg.serialize(), "auth kind");
  for (std::size_t i = 0; i < tag_size; ++i) {
    Bytes bad = good;
    bad[i] ^= 0x01;
    expect_rejected<Msg>(bad, "tag");
  }
}

TEST(WireMessages, SignedResponseAuthKindAndTagChecked) {
  expect_signed_bounds<AppendAckMsg>(17);
  expect_signed_bounds<ReadResponseMsg>(16);
  expect_signed_bounds<CasNackMsg>(15);
  expect_signed_bounds<LeaseGrantMsg>(18);
}

TEST(WireMessages, UnparsableNestedRecordRejected) {
  // A zero writer signature serializes but does not parse.
  const capsule::Record good = sample_record();
  capsule::Record unsigned_record = good;
  unsigned_record.writer_sig = {};
  AppendMsg append;
  append.record = good;
  EXPECT_TRUE(AppendMsg::deserialize(append.serialize()).ok());
  append.record = unsigned_record;
  expect_rejected<AppendMsg>(append.serialize(), "append record");
  CondAppendMsg cond;
  cond.record = good;
  EXPECT_TRUE(CondAppendMsg::deserialize(cond.serialize()).ok());
  cond.record = unsigned_record;
  expect_rejected<CondAppendMsg>(cond.serialize(), "cond-append record");
  PublishMsg publish;
  publish.record = good;
  EXPECT_TRUE(PublishMsg::deserialize(publish.serialize()).ok());
  publish.record = unsigned_record;
  expect_rejected<PublishMsg>(publish.serialize(), "publish record");
}

// ---- Cancellable timers -------------------------------------------------------------

TEST(SimTimers, CancelledTimerNeitherFiresNorAdvancesClock) {
  net::Simulator sim;
  bool fired = false;
  auto timer = sim.schedule_cancellable(from_seconds(100), [&] { fired = true; });
  sim.schedule(from_millis(5), [] {});
  EXPECT_TRUE(timer.active());
  timer.cancel();
  EXPECT_FALSE(timer.active());
  sim.run();
  EXPECT_FALSE(fired);
  // The 100 s timer must not have dragged the clock forward.
  EXPECT_EQ(sim.now(), from_millis(5));
}

TEST(SimTimers, UncancelledTimerFires) {
  net::Simulator sim;
  bool fired = false;
  sim.schedule_cancellable(from_millis(3), [&] { fired = true; });
  sim.run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(sim.now(), from_millis(3));
}

TEST(SimTimers, CancelAfterFireIsHarmless) {
  net::Simulator sim;
  auto timer = sim.schedule_cancellable(from_millis(1), [] {});
  sim.run();
  timer.cancel();  // no-op
  SUCCEED();
}

TEST(SimTimers, MixedCancelledAndLiveEventsKeepOrder) {
  net::Simulator sim;
  std::vector<int> order;
  auto t1 = sim.schedule_cancellable(from_millis(1), [&] { order.push_back(1); });
  sim.schedule(from_millis(2), [&] { order.push_back(2); });
  auto t3 = sim.schedule_cancellable(from_millis(3), [&] { order.push_back(3); });
  t1.cancel();
  (void)t3;
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{2, 3}));
  EXPECT_EQ(sim.now(), from_millis(3));
}

}  // namespace
}  // namespace gdp::wire
