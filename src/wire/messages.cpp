#include "wire/messages.hpp"

#include <algorithm>
#include <concepts>
#include <string_view>
#include <type_traits>

#include "common/varint.hpp"

namespace gdp::wire {

namespace {

// Each message's layout is declared once, as a `fields(io, m)` overload
// that hands its fields to `io` in wire order.  The Encoder (m const) and
// the Decoder (m mutable) both run that one list, and signed_body() is the
// list alone, so the bytes a server signs, sends and a client parses
// cannot drift apart.  A field's C++ type picks its encoding:
//
//   Name                  32 raw bytes
//   uint64_t, int64_t     fixed64 (int64 as its two's-complement bits)
//   uint32_t              fixed32
//   uint16_t              2 bytes, little-endian
//   bool                  1 byte: 1 or 0 (decoded as nonzero)
//   Bytes, std::string    varint length, then the bytes
//   capsule::Record       length-prefixed Record::serialize(); must parse
//   a struct with its own field list (TreeNode, ResponseAuth, ...)
//
// and the wrappers below mark what a type alone does not say.  Every
// bound the decoder enforces is written in the list.

/// A literal that opens a signed body, naming its type and version.
struct Tag {
  std::string_view text;
};

/// A one-byte enum; the decoder rejects values above `max`.
template <class T>
struct EnumByte {
  T& v;
  std::remove_const_t<T> max;
};

/// A 16-bit value carried in a fixed32 slot; decoding keeps the low bits.
template <class T>
struct Fixed32 {
  T& v;
};

enum class Count : std::uint8_t { kVarint, kFixed32 };

/// A count-prefixed list; the decoder rejects more than `cap` items.
template <class V>
struct List {
  V& items;
  std::uint64_t cap;
  Count count = Count::kVarint;
};

constexpr std::uint64_t kMaxItems = 100000;    ///< names or byte strings
constexpr std::uint64_t kMaxTreeItems = 4096;  ///< tree nodes or seqno ranges
constexpr std::uint64_t kUncapped = UINT32_MAX;  ///< only a fixed32 count's range

/// `m` in a field list: a T, const when encoding.
template <class M, class T>
concept Is = std::same_as<std::remove_const_t<M>, T>;

// ---- Field lists, in wire order -------------------------------------------------

void fields(auto& io, Is<ResponseAuth> auto& a) {
  io(EnumByte{a.kind, ResponseAuth::Kind::kHmac}, a.bytes);
}

/// Follows the signed body of each response that has a signed_body().
void trailer(auto& io, auto& m) { io(m.server_principal, m.delegation, m.auth); }

void fields(auto& io, Is<CreateCapsuleMsg> auto& m) {
  io(m.metadata, m.delegation, List{m.replica_peers, kMaxItems}, m.nonce);
}

void fields(auto& io, Is<AppendMsg> auto& m) {
  io(m.capsule, m.record, m.required_acks, m.nonce, m.session_pubkey);
}

void fields(auto& io, Is<ReadMsg> auto& m) {
  io(m.capsule, m.first_seqno, m.last_seqno, m.nonce, m.session_pubkey);
}

void fields(auto& io, Is<SubscribeMsg> auto& m) {
  io(m.capsule, m.subscriber, m.sub_cert, m.nonce);
}

void fields(auto& io, Is<AppendAckMsg> auto& m) {
  io(Tag{"gdp.append-ack.v1"}, m.capsule, m.record_hash, m.seqno, m.acks, m.ok,
     m.error, m.nonce);
}

void fields(auto& io, Is<ReadResponseMsg> auto& m) {
  io(Tag{"gdp.read-resp.v1"}, m.capsule, m.ok, Fixed32{m.code}, m.error, m.proof,
     m.heartbeat, List{m.branch_records, kMaxItems}, m.nonce);
}

void fields(auto& io, Is<PublishMsg> auto& m) { io(m.capsule, m.record, m.heartbeat); }

void fields(auto& io, Is<StatusMsg> auto& m) { io(m.ok, m.code, m.message, m.nonce); }

void fields(auto& io, Is<CondAppendMsg> auto& m) {
  io(m.capsule, m.record, m.expected_tip_seqno, m.expected_tip_hash, m.required_acks,
     m.lease_id, m.nonce, m.session_pubkey);
}

void fields(auto& io, Is<CasNackMsg> auto& m) {
  io(Tag{"gdp.cas-nack.v1"}, m.capsule, Fixed32{m.code}, m.error, m.tip_seqno,
     m.tip_hash, m.lease_holder, m.lease_expires_ns, m.nonce);
}

void fields(auto& io, Is<LeaseRequestMsg> auto& m) {
  io(m.capsule, EnumByte{m.op, LeaseRequestMsg::kRelease}, m.holder, m.lease_id,
     m.duration_ns, m.nonce, m.session_pubkey);
}

void fields(auto& io, Is<LeaseGrantMsg> auto& m) {
  io(Tag{"gdp.lease-grant.v1"}, m.capsule, m.ok, Fixed32{m.code}, m.error, m.lease_id,
     m.holder, m.expires_ns, m.tip_seqno, m.tip_hash, m.nonce);
}

void fields(auto& io, Is<SyncPullMsg> auto& m) {
  io(m.capsule, m.tip_seqno, List{m.holes, kMaxItems});
}

void fields(auto& io, Is<SyncPushMsg> auto& m) {
  io(m.capsule, List{m.records, kMaxItems}, m.resume_cursor);
}

void fields(auto& io, Is<SyncSummaryMsg> auto& m) {
  io(m.capsule, m.tip_seqno, m.tip_hash, m.root_hash);
}

void fields(auto& io, Is<TreeNode> auto& n) { io(n.first, n.last, n.hash); }

void fields(auto& io, Is<SyncDescendMsg> auto& m) {
  io(m.capsule, EnumByte{m.kind, SyncDescendMsg::kRequest}, m.tip_seqno,
     List{m.nodes, kMaxTreeItems});
}

void fields(auto& io, Is<SyncRangeMsg::Range> auto& r) { io(r.first, r.last); }

void fields(auto& io, Is<SyncRangeMsg> auto& m) {
  io(m.capsule, List{m.ranges, kMaxTreeItems}, List{m.holes, kMaxItems}, m.cursor);
}

void fields(auto& io, Is<AdvertiseMsg> auto& m) {
  io(m.principal, List{m.catalog_records, kMaxItems});
}

void fields(auto& io, Is<ChallengeMsg> auto& m) { io(m.nonce); }

void fields(auto& io, Is<ChallengeReplyMsg> auto& m) {
  io(m.principal, m.nonce_sig, m.rt_cert);
}

void fields(auto& io, Is<AdvertiseOkMsg> auto& m) { io(m.ok, m.message, m.accepted); }

void fields(auto& io, Is<LookupMsg> auto& m) { io(m.target, m.querying_router, m.nonce); }

void fields(auto& io, Is<LookupReplyMsg::ReplicaOption> auto& o) {
  io(o.attachment_router, o.next_hop, o.cost_us, o.expires_ns, o.evidence, o.principal);
}

void fields(auto& io, Is<LookupReplyMsg> auto& m) {
  io(m.found, m.target, m.attachment_router, m.next_hop, m.cost_us, m.nonce,
     m.expires_ns, m.evidence, m.principal,
     List{m.alternates, kUncapped, Count::kFixed32});
}

void fields(auto& io, Is<LoadReportMsg> auto& m) {
  io(m.server, m.queue_depth, m.shed_level, m.expected_delay_ns);
}

/// A struct encoded through its own field list.
template <class T, class Io>
concept HasFields = requires(Io& io, T& t) { fields(io, t); };

template <class M>
constexpr bool kSigned = requires(const M& m) { m.signed_body(); };

// ---- Encoder / decoder ----------------------------------------------------------

struct Encoder {
  Bytes out;

  template <class... F>
  void operator()(const F&... f) {
    (put(f), ...);
  }

  void put(const Name& n) { append(out, n.view()); }
  void put(std::uint64_t v) { put_fixed64(out, v); }
  void put(std::int64_t v) { put_fixed64(out, static_cast<std::uint64_t>(v)); }
  void put(std::uint32_t v) { put_fixed32(out, v); }
  void put(std::uint16_t v) {
    out.push_back(static_cast<std::uint8_t>(v));
    out.push_back(static_cast<std::uint8_t>(v >> 8));
  }
  void put(bool v) { out.push_back(v ? 1 : 0); }
  void put(const Bytes& b) { put_length_prefixed(out, b); }
  void put(const std::string& s) { put_length_prefixed(out, to_bytes(s)); }
  void put(const capsule::Record& r) { put_length_prefixed(out, r.serialize()); }
  void put(const Tag& t) {
    append(out, BytesView(reinterpret_cast<const std::uint8_t*>(t.text.data()),
                          t.text.size()));
  }
  template <class T>
  void put(const EnumByte<T>& e) {
    out.push_back(static_cast<std::uint8_t>(e.v));
  }
  template <class T>
  void put(const Fixed32<T>& f) {
    put_fixed32(out, f.v);
  }
  template <class V>
  void put(const List<V>& l) {
    if (l.count == Count::kFixed32) {
      put_fixed32(out, static_cast<std::uint32_t>(l.items.size()));
    } else {
      put_varint(out, l.items.size());
    }
    for (const auto& item : l.items) put(item);
  }
  template <HasFields<Encoder> T>
  void put(const T& m) {
    fields(*this, m);
  }
};

class Decoder {
 public:
  explicit Decoder(BytesView b) : r_(b) {}

  /// Reads the fields in order; after the first bad one, reads nothing.
  template <class... F>
  void operator()(F&&... f) {
    if (ok_) ok_ = (get(f) && ...);
  }

  /// Every field was good and no input is left over.
  bool done() const { return ok_ && r_.empty(); }

 private:
  bool get(Name& n) {
    auto b = r_.get_bytes(Name::kSize);
    if (b) n = *Name::from_bytes(*b);
    return b.has_value();
  }
  bool get(std::uint64_t& v) { return take(r_.get_fixed64(), v); }
  bool get(std::int64_t& v) { return take(r_.get_fixed64(), v); }
  bool get(std::uint32_t& v) { return take(r_.get_fixed32(), v); }
  bool get(std::uint16_t& v) {
    auto b = r_.get_bytes(2);
    if (b) v = static_cast<std::uint16_t>((*b)[0] | (*b)[1] << 8);
    return b.has_value();
  }
  bool get(bool& v) { return take(byte(), v); }
  bool get(Bytes& v) { return take(r_.get_length_prefixed(), v); }
  bool get(std::string& s) {
    auto b = r_.get_length_prefixed();
    if (b) s = to_string(*b);
    return b.has_value();
  }
  bool get(capsule::Record& rec) {
    auto b = r_.get_length_prefixed();
    if (!b) return false;
    auto parsed = capsule::Record::deserialize(*b);
    if (!parsed.ok()) return false;
    rec = std::move(parsed).value();
    return true;
  }
  bool get(const Tag& t) {
    auto b = r_.get_bytes(t.text.size());
    return b && to_string(*b) == t.text;
  }
  template <class T>
  bool get(const EnumByte<T>& e) {
    auto b = byte();
    if (!b || *b > static_cast<std::uint8_t>(e.max)) return false;
    e.v = static_cast<T>(*b);
    return true;
  }
  template <class T>
  bool get(const Fixed32<T>& f) {
    return take(r_.get_fixed32(), f.v);
  }
  template <class V>
  bool get(const List<V>& l) {
    std::uint64_t n = 0;
    const bool counted = l.count == Count::kFixed32 ? take(r_.get_fixed32(), n)
                                                    : take(r_.get_varint(), n);
    if (!counted || n > l.cap) return false;
    // Each item takes at least one byte, so this never reserves more
    // items than the input can hold.
    l.items.reserve(
        static_cast<std::size_t>(std::min<std::uint64_t>(n, r_.remaining())));
    for (std::uint64_t i = 0; i < n; ++i) {
      if (!get(l.items.emplace_back())) return false;
    }
    return true;
  }
  template <HasFields<Decoder> T>
  bool get(T& m) {
    fields(*this, m);
    return ok_;
  }

  /// Stores a present `x` into `v`, converted to the field's type.
  template <class X, class T>
  static bool take(std::optional<X> x, T& v) {
    if (x) v = static_cast<T>(std::move(*x));
    return x.has_value();
  }
  std::optional<std::uint8_t> byte() {
    auto b = r_.get_bytes(1);
    if (!b) return std::nullopt;
    return (*b)[0];
  }

  ByteReader r_;
  bool ok_ = true;
};

/// The field list alone: a signed response's signed body.
template <class M>
Bytes encode_fields(const M& m) {
  Encoder e;
  fields(e, m);
  return std::move(e.out);
}

/// The whole message: the field list, then a signed response's trailer.
template <class M>
Bytes encode(const M& m) {
  Encoder e{encode_fields(m)};
  if constexpr (kSigned<M>) trailer(e, m);
  return std::move(e.out);
}

template <class M>
Result<M> decode(BytesView b, const char* name) {
  M m;
  Decoder d(b);
  fields(d, m);
  if constexpr (kSigned<M>) trailer(d, m);
  if (!d.done()) {
    return make_error(Errc::kInvalidArgument, std::string("malformed ") + name);
  }
  return m;
}

}  // namespace

#define GDP_WIRE_MESSAGE(M)                                 \
  Bytes M::serialize() const { return encode(*this); }      \
  Result<M> M::deserialize(BytesView b) { return decode<M>(b, #M); }

GDP_WIRE_MESSAGE(CreateCapsuleMsg)
GDP_WIRE_MESSAGE(AppendMsg)
GDP_WIRE_MESSAGE(ReadMsg)
GDP_WIRE_MESSAGE(SubscribeMsg)
GDP_WIRE_MESSAGE(AppendAckMsg)
GDP_WIRE_MESSAGE(ReadResponseMsg)
GDP_WIRE_MESSAGE(PublishMsg)
GDP_WIRE_MESSAGE(StatusMsg)
GDP_WIRE_MESSAGE(CondAppendMsg)
GDP_WIRE_MESSAGE(CasNackMsg)
GDP_WIRE_MESSAGE(LeaseRequestMsg)
GDP_WIRE_MESSAGE(LeaseGrantMsg)
GDP_WIRE_MESSAGE(SyncPullMsg)
GDP_WIRE_MESSAGE(SyncPushMsg)
GDP_WIRE_MESSAGE(SyncSummaryMsg)
GDP_WIRE_MESSAGE(SyncDescendMsg)
GDP_WIRE_MESSAGE(SyncRangeMsg)
GDP_WIRE_MESSAGE(AdvertiseMsg)
GDP_WIRE_MESSAGE(ChallengeMsg)
GDP_WIRE_MESSAGE(ChallengeReplyMsg)
GDP_WIRE_MESSAGE(AdvertiseOkMsg)
GDP_WIRE_MESSAGE(LookupMsg)
GDP_WIRE_MESSAGE(LookupReplyMsg)
GDP_WIRE_MESSAGE(LoadReportMsg)

#undef GDP_WIRE_MESSAGE

Bytes AppendAckMsg::signed_body() const { return encode_fields(*this); }
Bytes ReadResponseMsg::signed_body() const { return encode_fields(*this); }
Bytes CasNackMsg::signed_body() const { return encode_fields(*this); }
Bytes LeaseGrantMsg::signed_body() const { return encode_fields(*this); }

}  // namespace gdp::wire
