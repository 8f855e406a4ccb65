// Decode robustness for every payload in core/messages.h, the eight
// selection messages (in both versions where a message has appended
// fields) and the thirteen app payloads: truncation at every byte,
// trailing garbage, wrong-tag cross-decodes, empty input and arbitrary
// single-byte corruption must all be rejected (or at worst decode
// cleanly) — never crash, never return a half-parsed message.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include "core/messages.h"
#include "crypto/sealed.h"
#include "crypto/sim_provider.h"
#include "util/rng.h"

namespace sep2p::core {
namespace {

struct Codec {
  std::string name;
  uint8_t tag = 0;
  std::vector<uint8_t> bytes;  // a valid encoding
  std::function<bool(const std::vector<uint8_t>&)> decodes;
};

crypto::SealedMessage MakeSealed(util::Rng& rng) {
  crypto::SimProvider provider;
  auto pair = provider.GenerateKeyPair(rng);
  return crypto::SealForRecipient(pair->pub, {1, 2, 3, 4}, rng);
}

template <typename T>
std::function<bool(const std::vector<uint8_t>&)> Decoder() {
  return [](const std::vector<uint8_t>& bytes) {
    return msg::Decode<T>(bytes).ok();
  };
}

crypto::Hash256 RandomHash(util::Rng& rng) {
  return crypto::Hash256(crypto::Digest(rng.NextBytes32()));
}

// One representative, non-degenerate instance of each of the 21
// payloads: the selection messages (tags 0x10..0x17), which a resident
// ProtocolService decodes straight off a socket, each followed by its
// version-2 form where it has appended fields, then the app payloads
// (tags 0x20..0x2c).
std::vector<Codec> AllCodecs() {
  util::Rng rng(7);
  std::vector<Codec> codecs;

  msg::VrandInvite invite;
  invite.rs1 = 0.125;
  invite.timestamp = 77;
  codecs.push_back({"VrandInvite", msg::kTagVrandInvite, msg::Encode(invite),
                    Decoder<msg::VrandInvite>()});
  invite.nonce = 0x0001000000000003ull;
  codecs.push_back({"VrandInvite.v2", msg::kTagVrandInvite,
                    msg::Encode(invite), Decoder<msg::VrandInvite>()});

  msg::CommitReply commit;
  commit.commitment = RandomHash(rng);
  codecs.push_back({"CommitReply", msg::kTagCommitReply, msg::Encode(commit),
                    Decoder<msg::CommitReply>()});

  msg::CommitList list;
  list.commitments = {RandomHash(rng), RandomHash(rng)};
  list.timestamp = 78;
  codecs.push_back({"CommitList", msg::kTagCommitList, msg::Encode(list),
                    Decoder<msg::CommitList>()});
  list.nonce = 0x0001000000000004ull;
  codecs.push_back({"CommitList.v2", msg::kTagCommitList, msg::Encode(list),
                    Decoder<msg::CommitList>()});

  msg::VrandReveal reveal;
  reveal.rnd = RandomHash(rng);
  reveal.sig = {1, 2, 3, 4, 5};
  codecs.push_back({"VrandReveal", msg::kTagVrandReveal, msg::Encode(reveal),
                    Decoder<msg::VrandReveal>()});

  msg::SlEngage engage;
  engage.vrnd = {0x53, 0x32, 0x50, 0x01};
  engage.point = RandomHash(rng);
  codecs.push_back({"SlEngage", msg::kTagSlEngage, msg::Encode(engage),
                    Decoder<msg::SlEngage>()});
  engage.nonce = 0x0001000000000005ull;
  codecs.push_back({"SlEngage.v2", msg::kTagSlEngage, msg::Encode(engage),
                    Decoder<msg::SlEngage>()});

  msg::SlReveal sl_reveal;
  sl_reveal.rnd = RandomHash(rng);
  sl_reveal.candidates = {rng.NextBytes32(), rng.NextBytes32()};
  codecs.push_back({"SlReveal", msg::kTagSlReveal, msg::Encode(sl_reveal),
                    Decoder<msg::SlReveal>()});

  msg::AttestRequest attest;
  attest.digest = RandomHash(rng);
  codecs.push_back({"AttestRequest", msg::kTagAttestRequest,
                    msg::Encode(attest), Decoder<msg::AttestRequest>()});
  attest.preimage = {'v', 'a', 'l'};
  codecs.push_back({"AttestRequest.v2", msg::kTagAttestRequest,
                    msg::Encode(attest), Decoder<msg::AttestRequest>()});

  msg::Attestation attestation;
  attestation.cert.subject = rng.NextBytes32();
  attestation.cert.serial = 9;
  attestation.cert.ca_signature = {7, 7, 7};
  attestation.sig = {8, 8};
  codecs.push_back({"Attestation", msg::kTagAttestation,
                    msg::Encode(attestation), Decoder<msg::Attestation>()});

  msg::AppAck ack;
  codecs.push_back({"AppAck", msg::kTagAppAck, msg::Encode(ack),
                    Decoder<msg::AppAck>()});

  msg::SensingContribution contribution;
  contribution.contribution_id = 0x0102030405060708ull;
  contribution.cell = 13;
  contribution.sealed = MakeSealed(rng);
  codecs.push_back({"SensingContribution", msg::kTagSensingContribution,
                    msg::Encode(contribution),
                    Decoder<msg::SensingContribution>()});

  msg::SensingPartial partial;
  partial.da_slot = 3;
  partial.grid = 2;
  partial.sums = {1.5, -2.0, 0.0, 4.25};
  partial.counts = {3, 0, 1, 7};
  codecs.push_back({"SensingPartial", msg::kTagSensingPartial,
                    msg::Encode(partial), Decoder<msg::SensingPartial>()});

  msg::ConceptStore store;
  store.posting_id = 42;
  store.share_key = {'p', 'i', 'l', 'o', 't', '#', '0'};
  store.share_x = 3;
  store.share_data = {9, 8, 7};
  codecs.push_back({"ConceptStore", msg::kTagConceptStore, msg::Encode(store),
                    Decoder<msg::ConceptStore>()});

  msg::ConceptQuery query;
  query.share_key = {'p', 'i', 'l', 'o', 't', '#', '1'};
  codecs.push_back({"ConceptQuery", msg::kTagConceptQuery, msg::Encode(query),
                    Decoder<msg::ConceptQuery>()});

  msg::ConceptShares shares;
  shares.rows = {{7, crypto::SecretShare{1, {1, 2}}},
                 {9, crypto::SecretShare{2, {3, 4}}}};
  codecs.push_back({"ConceptShares", msg::kTagConceptShares,
                    msg::Encode(shares), Decoder<msg::ConceptShares>()});

  msg::ProxyRelay relay;
  relay.contribution_id = 5;
  relay.recipient_index = 77;
  relay.sealed = MakeSealed(rng);
  codecs.push_back({"ProxyRelay", msg::kTagProxyRelay, msg::Encode(relay),
                    Decoder<msg::ProxyRelay>()});

  msg::SealedDelivery delivery;
  delivery.contribution_id = 6;
  delivery.sealed = MakeSealed(rng);
  codecs.push_back({"SealedDelivery", msg::kTagSealedDelivery,
                    msg::Encode(delivery), Decoder<msg::SealedDelivery>()});

  msg::DiffusionOffer offer;
  offer.offer_id = 11;
  std::string expr = "pilot AND NOT retired";
  offer.expression.assign(expr.begin(), expr.end());
  offer.message = {'h', 'i'};
  codecs.push_back({"DiffusionOffer", msg::kTagDiffusionOffer,
                    msg::Encode(offer), Decoder<msg::DiffusionOffer>()});

  msg::DiffusionAccept accept;
  accept.accepted = 1;
  codecs.push_back({"DiffusionAccept", msg::kTagDiffusionAccept,
                    msg::Encode(accept),
                    Decoder<msg::DiffusionAccept>()});

  msg::QueryAnswer answer;
  answer.da_slot = 2;
  answer.count = 10;
  answer.sum = 33.5;
  answer.min = -1.0;
  answer.max = 9.0;
  codecs.push_back({"QueryAnswer", msg::kTagQueryAnswer, msg::Encode(answer),
                    Decoder<msg::QueryAnswer>()});

  msg::QueryDeploy deploy;
  deploy.round_id = 0x0001000000000007ull;
  deploy.querier = 3;
  deploy.val = {0x10, 0x20, 0x30};  // opaque EncodeActorList bytes
  codecs.push_back({"QueryDeploy", msg::kTagQueryDeploy, msg::Encode(deploy),
                    Decoder<msg::QueryDeploy>()});

  msg::QueryFlush flush;
  flush.round_id = 0x0001000000000007ull;
  flush.da_slot = 2;
  codecs.push_back({"QueryFlush", msg::kTagQueryFlush, msg::Encode(flush),
                    Decoder<msg::QueryFlush>()});

  return codecs;
}

TEST(MessagesRobustnessTest, CoversEveryAppTag) {
  std::vector<Codec> codecs = AllCodecs();
  ASSERT_EQ(codecs.size(), 25u);
  // Every tag of 0x10..0x17 and 0x20..0x2c, in order, the four
  // versioned selection messages twice; PeekTag agrees on each.
  std::vector<uint8_t> expected_tags;
  for (uint8_t tag = 0x10; tag <= 0x17; ++tag) expected_tags.push_back(tag);
  for (uint8_t tag = 0x20; tag <= 0x2c; ++tag) expected_tags.push_back(tag);
  std::vector<uint8_t> tags;
  for (const Codec& codec : codecs) {
    if (tags.empty() || tags.back() != codec.tag) tags.push_back(codec.tag);
    auto tag = msg::PeekTag(codec.bytes);
    ASSERT_TRUE(tag.ok()) << codec.name;
    EXPECT_EQ(*tag, codec.tag) << codec.name;
    EXPECT_TRUE(codec.decodes(codec.bytes)) << codec.name;
  }
  EXPECT_EQ(tags, expected_tags);
}

TEST(MessagesRobustnessTest, EveryStrictPrefixIsRejected) {
  for (const Codec& codec : AllCodecs()) {
    for (size_t len = 0; len < codec.bytes.size(); ++len) {
      std::vector<uint8_t> prefix(codec.bytes.begin(),
                                  codec.bytes.begin() + len);
      EXPECT_FALSE(codec.decodes(prefix))
          << codec.name << " accepted a " << len << "-byte prefix of "
          << codec.bytes.size();
    }
  }
}

TEST(MessagesRobustnessTest, TrailingBytesAreRejected) {
  for (const Codec& codec : AllCodecs()) {
    std::vector<uint8_t> padded = codec.bytes;
    padded.push_back(0x00);
    EXPECT_FALSE(codec.decodes(padded)) << codec.name;
    padded.back() = 0xff;
    EXPECT_FALSE(codec.decodes(padded)) << codec.name;
  }
}

TEST(MessagesRobustnessTest, WrongTagCrossDecodesAreRejected) {
  std::vector<Codec> codecs = AllCodecs();
  for (const Codec& payload : codecs) {
    for (const Codec& decoder : codecs) {
      if (payload.tag == decoder.tag) continue;
      EXPECT_FALSE(decoder.decodes(payload.bytes))
          << decoder.name << " accepted " << payload.name << " bytes";
    }
  }
}

TEST(MessagesRobustnessTest, CorruptedMagicIsRejected) {
  for (const Codec& codec : AllCodecs()) {
    std::vector<uint8_t> bad = codec.bytes;
    bad[0] ^= 0xff;
    EXPECT_FALSE(codec.decodes(bad)) << codec.name;
    EXPECT_FALSE(msg::PeekTag(bad).ok()) << codec.name;
  }
}

TEST(MessagesRobustnessTest, SingleBitFlipsNeverCrashTheDecoder) {
  // Flipping any one bit anywhere must leave the decoder in one of two
  // states: clean rejection, or a successful decode (flips inside value
  // bytes can be legitimate payloads) — never a crash or a hang.
  for (const Codec& codec : AllCodecs()) {
    for (size_t byte = 0; byte < codec.bytes.size(); ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        std::vector<uint8_t> flipped = codec.bytes;
        flipped[byte] ^= static_cast<uint8_t>(1u << bit);
        (void)codec.decodes(flipped);
        (void)msg::PeekTag(flipped);
      }
    }
  }
}

TEST(MessagesRobustnessTest, EmptyInputIsRejectedEverywhere) {
  for (const Codec& codec : AllCodecs()) {
    EXPECT_FALSE(codec.decodes({})) << codec.name;
  }
  EXPECT_FALSE(msg::PeekTag({}).ok());
}

// ---------------------------------------------------------------------
// Wire-contract versioning (DESIGN.md §14): the selection messages that
// grew remote-run fields encode their DEFAULTS as version 1 — byte-for-
// byte what the pre-refactor code produced, which is what keeps sim
// traces bit-identical — and only non-default values produce version 2.
// Decoders accept both.

TEST(MessagesVersioningTest, DefaultFieldsEncodeAsVersionOne) {
  // The only wire difference a nonce makes is the appended u64 (plus
  // the version bump in the shared header): v2 bytes are exactly 8
  // longer, and nothing before the header's version field drifts.
  {
    msg::VrandInvite v1;
    v1.rs1 = 0.25;
    v1.timestamp = 99;
    msg::VrandInvite v2 = v1;
    v2.nonce = 0x0002000000000001ull;
    std::vector<uint8_t> b1 = msg::Encode(v1);
    std::vector<uint8_t> b2 = msg::Encode(v2);
    EXPECT_EQ(b2.size(), b1.size() + 8);
    EXPECT_TRUE(std::equal(b1.begin(), b1.begin() + 4, b2.begin()));
  }
  {
    msg::SlEngage v1;
    v1.vrnd = {1, 2, 3};
    msg::SlEngage v2 = v1;
    v2.nonce = 7;
    EXPECT_EQ(msg::Encode(v2).size(), msg::Encode(v1).size() + 8);
  }
  {
    msg::CommitList v1;
    v1.commitments.resize(3);
    v1.timestamp = 5;
    msg::CommitList v2 = v1;
    v2.nonce = 7;
    EXPECT_EQ(msg::Encode(v2).size(), msg::Encode(v1).size() + 8);
  }
}

TEST(MessagesVersioningTest, NonDefaultFieldsRoundTripAsVersionTwo) {
  msg::VrandInvite invite;
  invite.rs1 = 0.125;
  invite.timestamp = 123;
  invite.nonce = 0x0003000000000042ull;
  auto invite_rt = msg::Decode<msg::VrandInvite>(msg::Encode(invite));
  ASSERT_TRUE(invite_rt.ok());
  EXPECT_EQ(invite_rt->nonce, invite.nonce);
  EXPECT_EQ(invite_rt->rs1, invite.rs1);
  EXPECT_EQ(invite_rt->timestamp, invite.timestamp);

  msg::CommitList list;
  list.commitments.resize(2);
  list.timestamp = 9;
  list.nonce = 17;
  auto list_rt = msg::Decode<msg::CommitList>(msg::Encode(list));
  ASSERT_TRUE(list_rt.ok());
  EXPECT_EQ(list_rt->nonce, list.nonce);
  EXPECT_EQ(list_rt->commitments.size(), list.commitments.size());

  msg::SlEngage engage;
  engage.vrnd = {9, 8, 7, 6};
  engage.nonce = 0x0001000000000009ull;
  auto engage_rt = msg::Decode<msg::SlEngage>(msg::Encode(engage));
  ASSERT_TRUE(engage_rt.ok());
  EXPECT_EQ(engage_rt->nonce, engage.nonce);
  EXPECT_EQ(engage_rt->vrnd, engage.vrnd);

  msg::AttestRequest attest;
  attest.preimage = {'v', 'a', 'l'};
  auto attest_rt = msg::Decode<msg::AttestRequest>(msg::Encode(attest));
  ASSERT_TRUE(attest_rt.ok());
  EXPECT_EQ(attest_rt->preimage, attest.preimage);
  EXPECT_EQ(attest_rt->digest, attest.digest);
}

TEST(MessagesVersioningTest, VersionOneBytesDecodeWithDefaultedFields) {
  // A v1 peer's bytes (defaults omitted on the wire) decode on a v2
  // node with the new fields at their defaults.
  msg::VrandInvite invite;
  invite.rs1 = 0.5;
  invite.timestamp = 4;  // nonce stays 0 → v1 bytes
  auto invite_rt = msg::Decode<msg::VrandInvite>(msg::Encode(invite));
  ASSERT_TRUE(invite_rt.ok());
  EXPECT_EQ(invite_rt->nonce, 0u);

  msg::AttestRequest attest;  // empty preimage → v1 bytes
  auto attest_rt = msg::Decode<msg::AttestRequest>(msg::Encode(attest));
  ASSERT_TRUE(attest_rt.ok());
  EXPECT_TRUE(attest_rt->preimage.empty());
}

TEST(MessagesVersioningTest, VersionedPrefixesStillRejected) {
  // The robustness sweep above covers v1 bytes; repeat the prefix sweep
  // for the v2 shapes.
  msg::SlEngage engage;
  engage.vrnd = {1, 2};
  engage.nonce = 3;
  std::vector<uint8_t> bytes = msg::Encode(engage);
  for (size_t len = 0; len < bytes.size(); ++len) {
    std::vector<uint8_t> prefix(bytes.begin(), bytes.begin() + len);
    EXPECT_FALSE(msg::Decode<msg::SlEngage>(prefix).ok()) << len;
  }
  msg::AttestRequest attest;
  attest.preimage = {5, 6, 7, 8};
  bytes = msg::Encode(attest);
  for (size_t len = 0; len < bytes.size(); ++len) {
    std::vector<uint8_t> prefix(bytes.begin(), bytes.begin() + len);
    EXPECT_FALSE(msg::Decode<msg::AttestRequest>(prefix).ok()) << len;
  }
}

// SlReveal carries an SL's whole candidate list (hundreds of keys) and
// crosses the codec as one bulk copy each way: the layout stays header,
// RND_j, u32 count, then the keys back to back, and every truncation or
// trailing byte is still rejected.
TEST(SelectionMessagesTest, SlRevealKeysTravelBackToBack) {
  util::Rng rng(5);
  for (size_t count : {size_t{0}, size_t{1}, size_t{37}}) {
    msg::SlReveal reveal;
    reveal.rnd = crypto::Hash256(crypto::Digest(rng.NextBytes32()));
    for (size_t i = 0; i < count; ++i) {
      reveal.candidates.push_back(rng.NextBytes32());
    }
    std::vector<uint8_t> bytes = msg::Encode(reveal);
    constexpr size_t kFixed = 6 + 32 + 4;  // header, RND_j, count
    ASSERT_EQ(bytes.size(), kFixed + 32 * count);
    for (size_t i = 0; i < count; ++i) {
      EXPECT_TRUE(std::equal(reveal.candidates[i].begin(),
                             reveal.candidates[i].end(),
                             bytes.begin() + kFixed + 32 * i));
    }
    auto decoded = msg::Decode<msg::SlReveal>(bytes);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->rnd, reveal.rnd);
    EXPECT_EQ(decoded->candidates, reveal.candidates);
    for (size_t len = 0; len < bytes.size(); ++len) {
      std::vector<uint8_t> prefix(bytes.begin(), bytes.begin() + len);
      EXPECT_FALSE(msg::Decode<msg::SlReveal>(prefix).ok())
          << count << "/" << len;
    }
    bytes.push_back(0);
    EXPECT_FALSE(msg::Decode<msg::SlReveal>(bytes).ok()) << count;
  }
}

}  // namespace
}  // namespace sep2p::core
