#include "router/endpoint.hpp"

#include "common/log.hpp"

namespace gdp::router {

Endpoint::Endpoint(net::Network& net, const crypto::PrivateKey& key,
                   trust::Role role, std::string label)
    : net_(net),
      key_(key),
      self_(trust::Principal::create(key, role, std::move(label))),
      reattach_count_(net_.metrics().counter(
          "endpoint." + std::string(self_.label()) + ".reattaches")),
      recv_pdus_(net_.metrics().counter(
          "endpoint." + std::string(self_.label()) + ".recv.pdus")),
      drop_bad_challenge_(net_.metrics().counter(
          "endpoint." + std::string(self_.label()) + ".drop.bad_challenge")),
      drop_malformed_(net_.metrics().counter(
          "endpoint." + std::string(self_.label()) + ".drop.malformed")),
      drop_not_attached_(net_.metrics().counter(
          "endpoint." + std::string(self_.label()) + ".drop.not_attached")) {
  net_.attach(self_.name(), this);
}

void Endpoint::on_link_state(const Name& neighbor, bool up) {
  if (router_.is_zero() || neighbor != router_) return;
  if (!up) {
    // The router withdrew our routes on its down edge; until the handshake
    // re-runs, we are off the fabric.
    attached_ = false;
    return;
  }
  reattach_count_.inc();
  reattach();
}

void Endpoint::reattach() { advertise(router_, {}, lease_); }

void Endpoint::advertise(const Name& router, std::vector<Bytes> catalog_records,
                         Duration lease) {
  router_ = router;
  lease_ = lease;
  attached_ = false;
  wire::AdvertiseMsg msg;
  msg.principal = self_.serialize();
  msg.catalog_records = std::move(catalog_records);
  wire::Pdu pdu;
  pdu.dst = router;
  pdu.src = self_.name();
  pdu.type = wire::MsgType::kAdvertise;
  pdu.flow_id = next_flow();
  pdu.payload = msg.serialize();
  net_.send(self_.name(), router, std::move(pdu));
}

void Endpoint::on_pdu(const Name& from, const wire::Pdu& pdu) {
  recv_pdus_.inc();
  net_.trace().record(pdu.trace_id, self_.name(), "recv");
  switch (pdu.type) {
    case wire::MsgType::kChallenge: {
      auto challenge = wire::ChallengeMsg::deserialize(pdu.payload);
      if (!challenge.ok() || from != router_) {
        drop_bad_challenge_.inc();
        net_.trace().record(pdu.trace_id, self_.name(), "drop", "bad_challenge");
        return;
      }
      // Sign (nonce || router name): proves key possession and binds the
      // proof to this router so it cannot be relayed elsewhere.
      Bytes payload = concat(challenge->nonce, router_.bytes());
      wire::ChallengeReplyMsg reply;
      reply.principal = self_.serialize();
      reply.nonce_sig = key_.sign(payload).encode();
      const TimePoint now = net_.sim().now();
      reply.rt_cert =
          trust::make_rt_cert(key_, self_.name(), router_, now, now + lease_)
              .serialize();
      wire::Pdu out;
      out.dst = router_;
      out.src = self_.name();
      out.type = wire::MsgType::kChallengeReply;
      out.flow_id = pdu.flow_id;
      out.payload = reply.serialize();
      net_.send(self_.name(), router_, std::move(out));
      return;
    }
    case wire::MsgType::kAdvertiseOk: {
      auto ok_msg = wire::AdvertiseOkMsg::deserialize(pdu.payload);
      if (!ok_msg.ok()) {
        drop_malformed_.inc();
        net_.trace().record(pdu.trace_id, self_.name(), "drop", "malformed");
        return;
      }
      attached_ = ok_msg->ok;
      on_attached(ok_msg->ok, *ok_msg);
      return;
    }
    default:
      net_.trace().record(pdu.trace_id, self_.name(), "deliver");
      handle_pdu(from, pdu);
  }
}

void Endpoint::on_pdu_view(const Name& from, wire::PduView view) {
  switch (view.type()) {
    case wire::MsgType::kChallenge:
    case wire::MsgType::kAdvertiseOk: {
      // Handshake control plane: tiny, rare, and handled by the legacy
      // parser — materialising here keeps one copy of that logic.
      const wire::Pdu pdu = view.materialize();
      on_pdu(from, pdu);
      return;
    }
    default:
      // Mirrors on_pdu's accounting for the delivery path exactly.
      recv_pdus_.inc();
      net_.trace().record(view.trace_id(), self_.name(), "recv");
      net_.trace().record(view.trace_id(), self_.name(), "deliver");
      handle_pdu_view(from, std::move(view));
  }
}

void Endpoint::send_pdu(const Name& dst, wire::MsgType type, Bytes payload,
                        std::uint64_t flow_id) {
  wire::Pdu pdu;
  pdu.dst = dst;
  pdu.src = self_.name();
  pdu.type = type;
  pdu.flow_id = flow_id == 0 ? next_flow() : flow_id;
  pdu.payload = std::move(payload);
  if (router_.is_zero()) {
    GDP_LOG(kWarn, "endpoint") << "send_pdu before advertise()";
    drop_not_attached_.inc();
    net_.trace().record(pdu.trace_id, self_.name(), "drop", "not_attached");
    return;
  }
  net_.send(self_.name(), router_, std::move(pdu));
}

}  // namespace gdp::router
