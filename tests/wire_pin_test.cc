// Pins the exact bytes of every wire layout: each protocol and app
// message (version 1, and version 2 where a message has appended
// fields), both verifiable artifacts, a version-1 and a version-2 TCP
// frame, and each signed-bytes layout. Every instance is built from
// fixed bytes, so a pin moves only when a layout does. Sim traces, the
// bench goldens and the perfbench seed-1 pins all assume these layouts.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/csar.h"
#include "core/messages.h"
#include "core/protocol_service.h"
#include "core/selection.h"
#include "core/vrand.h"
#include "core/wire.h"
#include "crypto/certificate.h"
#include "crypto/sha256.h"
#include "net/frame.h"
#include "node/join.h"
#include "util/hex.h"

namespace sep2p {
namespace {

std::array<uint8_t, 32> Fill(uint8_t first) {
  std::array<uint8_t, 32> out{};
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<uint8_t>(first + i);
  }
  return out;
}

crypto::Hash256 HashOf(uint8_t first) {
  return crypto::Hash256(crypto::Digest(Fill(first)));
}

crypto::Certificate Cert(uint8_t first) {
  crypto::Certificate cert;
  cert.subject = Fill(first);
  cert.serial = 0x0102030405060700ull + first;
  cert.ca_signature = {first, 0xca, 0x5e, 0x00, 0xff};
  return cert;
}

crypto::SealedMessage Sealed(uint8_t first) {
  crypto::SealedMessage sealed;
  sealed.recipient = Fill(first);
  sealed.nonce = Fill(static_cast<uint8_t>(first + 0x40));
  sealed.ciphertext = {0xde, 0xad, first};
  return sealed;
}

std::vector<core::VrandParticipant> Participants() {
  std::vector<core::VrandParticipant> out(3);
  for (size_t i = 0; i < out.size(); ++i) {
    out[i].cert = Cert(static_cast<uint8_t>(0x10 * (i + 1)));
    out[i].rnd = HashOf(static_cast<uint8_t>(0x80 + i));
    out[i].sig = {static_cast<uint8_t>(i), 0x51, 0x6e};
  }
  return out;
}

core::VerifiableRandom Vrand() {
  core::VerifiableRandom vrnd;
  vrnd.cert_t = Cert(0x01);
  vrnd.timestamp = 0x00000000deadbeefull;
  vrnd.rs1 = 0.0625;
  vrnd.participants = Participants();
  return vrnd;
}

core::VerifiableActorList Val() {
  core::VerifiableActorList val;
  val.rnd_t = HashOf(0x21);
  val.timestamp = 1234567;
  val.rs2 = 0.125;
  val.relocations = 2;
  val.actor_keys = {Fill(0x31), Fill(0x32), Fill(0x33)};
  val.actor_certs = {Cert(0x31), Cert(0x32)};
  val.attestations.resize(2);
  val.attestations[0].cert = Cert(0x41);
  val.attestations[0].sig = {0x01, 0x02};
  val.attestations[1].cert = Cert(0x42);
  val.attestations[1].sig = {0x03};
  return val;
}

// "<length>:<sha256 hex>" of `bytes`.
std::string Pin(const std::vector<uint8_t>& bytes) {
  const crypto::Digest digest = crypto::Sha256Hash(bytes);
  return std::to_string(bytes.size()) + ":" +
         util::ToHex(digest.data(), digest.size());
}

std::vector<std::pair<std::string, std::vector<uint8_t>>> Layouts() {
  namespace msg = core::msg;
  std::vector<std::pair<std::string, std::vector<uint8_t>>> out;

  msg::VrandInvite invite;
  invite.rs1 = 0.25;
  invite.timestamp = 99;
  out.emplace_back("VrandInvite.v1", msg::Encode(invite));
  invite.nonce = 0x0002000000000001ull;
  out.emplace_back("VrandInvite.v2", msg::Encode(invite));

  msg::CommitReply reply;
  reply.commitment = HashOf(0x61);
  out.emplace_back("CommitReply", msg::Encode(reply));

  msg::CommitList list;
  list.commitments = {HashOf(0x71), HashOf(0x72), HashOf(0x73)};
  list.timestamp = 5;
  out.emplace_back("CommitList.v1", msg::Encode(list));
  list.nonce = 7;
  out.emplace_back("CommitList.v2", msg::Encode(list));

  msg::VrandReveal reveal;
  reveal.rnd = HashOf(0x81);
  reveal.sig = {0x5a, 0x5b, 0x5c, 0x5d};
  out.emplace_back("VrandReveal", msg::Encode(reveal));

  msg::SlEngage engage;
  engage.vrnd = {1, 2, 3};
  engage.point = HashOf(0x91);
  out.emplace_back("SlEngage.v1", msg::Encode(engage));
  engage.nonce = 0x0001000000000009ull;
  out.emplace_back("SlEngage.v2", msg::Encode(engage));

  msg::SlReveal sl_reveal;
  sl_reveal.rnd = HashOf(0xa1);
  sl_reveal.candidates = {Fill(0xa2), Fill(0xa3)};
  out.emplace_back("SlReveal", msg::Encode(sl_reveal));

  msg::AttestRequest attest;
  attest.digest = HashOf(0xb1);
  out.emplace_back("AttestRequest.v1", msg::Encode(attest));
  attest.preimage = {'v', 'a', 'l'};
  out.emplace_back("AttestRequest.v2", msg::Encode(attest));

  msg::Attestation attestation;
  attestation.cert = Cert(0xc1);
  attestation.sig = {0xc2, 0xc3};
  out.emplace_back("Attestation", msg::Encode(attestation));

  out.emplace_back("AppAck", msg::Encode(msg::AppAck{}));

  msg::SensingContribution contribution;
  contribution.contribution_id = 0x0102030405060708ull;
  contribution.cell = 13;
  contribution.sealed = Sealed(0x11);
  out.emplace_back("SensingContribution", msg::Encode(contribution));

  msg::SensingPartial partial;
  partial.da_slot = 3;
  partial.grid = 2;
  partial.sums = {1.5, -2.0, 0.0, 4.25};
  partial.counts = {3, 0, 1, 7};
  out.emplace_back("SensingPartial", msg::Encode(partial));

  msg::ConceptStore store;
  store.posting_id = 42;
  store.share_key = {'p', 'i', 'l', 'o', 't', '#', '0'};
  store.share_x = 3;
  store.share_data = {9, 8, 7};
  out.emplace_back("ConceptStore", msg::Encode(store));

  msg::ConceptQuery query;
  query.share_key = {'p', 'i', 'l', 'o', 't', '#', '1'};
  out.emplace_back("ConceptQuery", msg::Encode(query));

  msg::ConceptShares shares;
  shares.rows = {{7, crypto::SecretShare{1, {1, 2}}},
                 {9, crypto::SecretShare{2, {3, 4}}}};
  out.emplace_back("ConceptShares", msg::Encode(shares));

  msg::ProxyRelay relay;
  relay.contribution_id = 5;
  relay.recipient_index = 77;
  relay.sealed = Sealed(0x22);
  out.emplace_back("ProxyRelay", msg::Encode(relay));

  msg::SealedDelivery delivery;
  delivery.contribution_id = 6;
  delivery.sealed = Sealed(0x33);
  out.emplace_back("SealedDelivery", msg::Encode(delivery));

  msg::DiffusionOffer offer;
  offer.offer_id = 11;
  offer.expression = {'p', 'i', 'l', 'o', 't'};
  offer.message = {'h', 'i'};
  out.emplace_back("DiffusionOffer", msg::Encode(offer));

  msg::DiffusionAccept accept;
  accept.accepted = 1;
  out.emplace_back("DiffusionAccept", msg::Encode(accept));

  msg::QueryAnswer answer;
  answer.da_slot = 2;
  answer.count = 10;
  answer.sum = 33.5;
  answer.min = -1.0;
  answer.max = 9.0;
  out.emplace_back("QueryAnswer", msg::Encode(answer));

  msg::QueryDeploy deploy;
  deploy.round_id = 0x0001000000000007ull;
  deploy.querier = 3;
  deploy.val = {0x10, 0x20, 0x30};
  out.emplace_back("QueryDeploy", msg::Encode(deploy));

  msg::QueryFlush flush;
  flush.round_id = 0x0001000000000007ull;
  flush.da_slot = 2;
  out.emplace_back("QueryFlush", msg::Encode(flush));

  out.emplace_back("VerifiableRandom",
                   core::wire::EncodeVerifiableRandom(Vrand()));
  out.emplace_back("VerifiableActorList", core::wire::EncodeActorList(Val()));

  net::Frame frame;
  frame.type = net::kFrameResponse;
  frame.rpc_id = 0x0000000100000002ull;
  frame.src = 4;
  frame.dst = 9;
  frame.status = net::kFrameOk;
  frame.payload = {0xab, 0xcd};
  out.emplace_back("Frame.v1", net::EncodeFrame(frame));
  frame.span = 17;
  frame.hlc = 0x0000018000000003ull;
  out.emplace_back("Frame.v2", net::EncodeFrame(frame));

  out.emplace_back("Certificate.SignedBytes", Cert(0xd1).SignedBytes());
  out.emplace_back("VerifiableRandom.SignedBytes", Vrand().SignedBytes());
  core::CsarRandom csar;
  csar.cert_t = Cert(0x02);
  csar.timestamp = 0x00000000deadbeefull;
  csar.participants = Participants();
  out.emplace_back("CsarRandom.SignedBytes", csar.SignedBytes());
  out.emplace_back("SignedBytesFromList", core::SignedBytesFromList(list));
  out.emplace_back("VerifiableActorList.SignedBytes", Val().SignedBytes());
  node::AttestedCache cache;
  cache.owner_cert = Cert(0xe1);
  cache.timestamp = 77;
  cache.rs1 = 0.5;
  cache.entries = {Fill(0xe2), Fill(0xe3)};
  out.emplace_back("AttestedCache.SignedBytes", cache.SignedBytes());
  return out;
}

TEST(WirePinTest, EveryLayoutKeepsItsBytes) {
  const std::vector<std::pair<std::string, std::string>> expected = {
      {"VrandInvite.v1",
       "22:7f7b3946ef4e9563524b975b1101a94118da2736ea992dd5cd6fcc7545605faf"},
      {"VrandInvite.v2",
       "30:86e96098c27d704eb3b2ebd1b1c52074df0888e618b58eae5cfe0fefc73b598f"},
      {"CommitReply",
       "38:afd504d0c1e303b7af9fcac3ca05e3d8ada20a012e363ab3c34ae2377f5b5b32"},
      {"CommitList.v1",
       "114:b4c5745d5eac8884226beb881b792cf42c17d42b24fc7580826ff42a4f9e8634"},
      {"CommitList.v2",
       "122:d3cc4e4d7b6019ac312d19b4b12b2e78db8656e54dd1f7c387879ce9d280e771"},
      {"VrandReveal",
       "46:40d164cf635f4d8f67c5f67aab912c5fbe00926776ef70f2d8f27aa63866a8e2"},
      {"SlEngage.v1",
       "45:ea89b670192cce4613182c9050b3c7997657c0d7e901a4f097f3413c34d98df7"},
      {"SlEngage.v2",
       "53:efb09f1840aed705774605cd204b6b583612e096d12b37c22bb5f6411cf97602"},
      {"SlReveal",
       "106:f2a5ae31ebc5879cb7827b1bc74c01e05f7c0d77ef6d77176090a86843b58307"},
      {"AttestRequest.v1",
       "38:154e7ea61d72e92fc7d37cbb819608211ab81b72ee0dc0489fb8ef6b891a25fd"},
      {"AttestRequest.v2",
       "45:39ebd52e70fc4b1d748850a0e0bb60a527e184c039112f2ea16d4b909aafdade"},
      {"Attestation",
       "61:fa1714bfab7e72c753ae5eccf4c6648450895c71ac2ad979059b57bc67285cc4"},
      {"AppAck",
       "6:1ca3c718204d153f18c797d75fa53eefd23da8e22e62d1360cf98845e8cdff84"},
      {"SensingContribution",
       "89:11b91870729de9b6681339c97b6e30f763b4d78b3a68782e2d5585aee6670288"},
      {"SensingPartial",
       "84:bc081265a2b318d84432f5bbc7b73f5bd455ee22b08b96d91858812fb7763a59"},
      {"ConceptStore",
       "33:3eeececb17fb04778eb09b2b6c4aeced11a229a71f8e169dfd2330bb4b382281"},
      {"ConceptQuery",
       "17:eb2b9914b7c6238fda80c2c2e4d10b033e94f57e9017840061cdc16dd4d9d0a9"},
      {"ConceptShares",
       "40:304db210524d6a455405a1b00f6dcd5058ea675edba1ce322346588c0cf20543"},
      {"ProxyRelay",
       "89:b2b9aacdd23ad44c69f37eab2031dd9f5f9c1bce717eb677967db8160733d405"},
      {"SealedDelivery",
       "85:45fa414be536794a2fcaa86203ebccb5f50bc3cb3d3bcaf545a3185cc4867836"},
      {"DiffusionOffer",
       "29:45904fc1d086b32859fd5603a46ddad8271df23c4407c42a66d67d5d53e08f8f"},
      {"DiffusionAccept",
       "7:52db36b1bf2429eb681d863f0df2a245612b0bd14724f546a56383023dcb815b"},
      {"QueryAnswer",
       "42:6aa009f815b23b8666c871f76faf9c461a79608916c7a306966fd1813c14fd9c"},
      {"QueryDeploy",
       "25:ab669537708c08527e7f54a5c969188e015692f81b02d81a0c7963f0bd12f74b"},
      {"QueryFlush",
       "18:fcc5fbd229421c34367ae7dc1ee3d54f281f3cee3f85e5c48afb7639e26e1a78"},
      {"VerifiableRandom",
       "339:8e960b611e10a7e3c9f03cef56706de8278f1379a1c43b19f1ed2183a074c673"},
      {"VerifiableActorList",
       "373:941e57ec4f820192b161d27cdcdb352a9407edaf06376d062d0c632bbac8a11b"},
      {"Frame.v1",
       "29:fca32ee6482b8704fe06381696fb70c474f8fe97233324e483b34592a95a069a"},
      {"Frame.v2",
       "45:6556d1ac20d2219604eb2ce26cb219e77f008a8f398120d1fd0b08550b530f07"},
      {"Certificate.SignedBytes",
       "40:a69d22e78debf4873302083926a6a8acb25a0c58e913a9541559541ecb97d2e1"},
      {"VerifiableRandom.SignedBytes",
       "104:1aa686d2e890caa7fa9db00112a058e615a128d3c1fd4c88387e257fb46bec22"},
      {"CsarRandom.SignedBytes",
       "104:1aa686d2e890caa7fa9db00112a058e615a128d3c1fd4c88387e257fb46bec22"},
      {"SignedBytesFromList",
       "104:1186f58a0e301b57a44065f41dd949b1ed3d0c493f265c8cd529d6286d0637dc"},
      {"VerifiableActorList.SignedBytes",
       "140:c5ad67ee6386cedd0107cfa5ce39078fa363bf3f09cf6de7d8bea74a7ff4b32d"},
      {"AttestedCache.SignedBytes",
       "104:c32c8c220b7ad53291055e95da98c1483b361e675058812b241ee6b99aaf5db0"},
  };
  const auto layouts = Layouts();
  ASSERT_EQ(layouts.size(), expected.size());
  for (size_t i = 0; i < layouts.size(); ++i) {
    EXPECT_EQ(layouts[i].first, expected[i].first);
    EXPECT_EQ(Pin(layouts[i].second), expected[i].second)
        << layouts[i].first;
  }
}

// The layouts small enough to read, in full: a reader can check the
// header, the version rule and the field order byte by byte.
TEST(WirePinTest, SmallLayoutsByteForByte) {
  namespace msg = core::msg;
  msg::VrandInvite invite;
  invite.rs1 = 0.25;
  invite.timestamp = 99;
  // Magic "S2P", tag 0x10, version 1, rs1 (IEEE-754 bits), timestamp.
  EXPECT_EQ(util::ToHex(msg::Encode(invite)),
            "533250100001"
            "3fd0000000000000"
            "0000000000000063");
  // A nonzero nonce is appended and bumps the version to 2.
  invite.nonce = 0x0002000000000001ull;
  EXPECT_EQ(util::ToHex(msg::Encode(invite)),
            "533250100002"
            "3fd0000000000000"
            "0000000000000063"
            "0002000000000001");

  // Magic, type (response), version 1, rpc id, src, dst, status, payload
  // length, payload; a nonzero span or hlc adds both and version 2.
  net::Frame frame;
  frame.type = net::kFrameResponse;
  frame.rpc_id = 0x0000000100000002ull;
  frame.src = 4;
  frame.dst = 9;
  frame.payload = {0xab, 0xcd};
  EXPECT_EQ(util::ToHex(net::EncodeFrame(frame)),
            "533250020001"
            "0000000100000002"
            "00000004"
            "00000009"
            "00"
            "00000002"
            "abcd");
  frame.span = 17;
  frame.hlc = 0x0000018000000003ull;
  EXPECT_EQ(util::ToHex(net::EncodeFrame(frame)),
            "533250020002"
            "0000000100000002"
            "00000004"
            "00000009"
            "00"
            "0000000000000011"
            "0000018000000003"
            "00000002"
            "abcd");
}

}  // namespace
}  // namespace sep2p
