// KCM stream scheduling tests (§6.4 extension): request reassembly across
// arbitrary TCP segmentation, request-level policy invocation, and framing
// error handling.
#include <gtest/gtest.h>

#include <vector>

#include "src/net/kcm.h"
#include "src/policies/builtin.h"
#include "tests/oracles/native_policies.h"

namespace syrup {
namespace {

struct Delivered {
  uint64_t stream;
  Decision decision;
  std::vector<uint8_t> message;
};

class KcmTest : public testing::Test {
 protected:
  KcmTest()
      : mux_([this](uint64_t stream, Decision decision,
                    const std::vector<uint8_t>& message) {
          delivered_.push_back(Delivered{stream, decision, message});
        }) {}

  static std::vector<uint8_t> Message(uint8_t fill, size_t len) {
    return std::vector<uint8_t>(len, fill);
  }

  static std::vector<uint8_t> PacketMessage(ReqType type) {
    Packet pkt;
    pkt.tuple.dst_port = 9000;
    pkt.SetHeader(type, 1, 0, 1, 0);
    return std::vector<uint8_t>(pkt.wire.begin(), pkt.wire.end());
  }

  KcmMultiplexor mux_;
  std::vector<Delivered> delivered_;
};

TEST_F(KcmTest, SingleMessageInOneSegment) {
  const auto payload = Message(0xAB, 10);
  const auto frame = KcmFrame(payload.data(), payload.size());
  ASSERT_TRUE(mux_.OnSegment(1, frame.data(), frame.size()).ok());
  ASSERT_EQ(delivered_.size(), 1u);
  EXPECT_EQ(delivered_[0].message, payload);
  EXPECT_EQ(delivered_[0].decision, kPass);  // no policy installed
}

TEST_F(KcmTest, MessageSplitByteByByte) {
  const auto payload = Message(0x11, 33);
  const auto frame = KcmFrame(payload.data(), payload.size());
  for (uint8_t byte : frame) {
    ASSERT_TRUE(mux_.OnSegment(1, &byte, 1).ok());
  }
  ASSERT_EQ(delivered_.size(), 1u);
  EXPECT_EQ(delivered_[0].message, payload);
}

TEST_F(KcmTest, ManyMessagesInOneSegment) {
  std::vector<uint8_t> segment;
  for (uint8_t i = 0; i < 5; ++i) {
    const auto payload = Message(i, 4 + i);
    const auto frame = KcmFrame(payload.data(), payload.size());
    segment.insert(segment.end(), frame.begin(), frame.end());
  }
  ASSERT_TRUE(mux_.OnSegment(1, segment.data(), segment.size()).ok());
  ASSERT_EQ(delivered_.size(), 5u);
  EXPECT_EQ(delivered_[3].message, Message(3, 7));
}

TEST_F(KcmTest, MessageSpanningSegmentsWithTrailingStart) {
  const auto a = Message(0xAA, 20);
  const auto b = Message(0xBB, 30);
  auto frame_a = KcmFrame(a.data(), a.size());
  const auto frame_b = KcmFrame(b.data(), b.size());
  // Segment 1: all of A plus the first 7 bytes of B.
  std::vector<uint8_t> first = frame_a;
  first.insert(first.end(), frame_b.begin(), frame_b.begin() + 7);
  ASSERT_TRUE(mux_.OnSegment(1, first.data(), first.size()).ok());
  EXPECT_EQ(delivered_.size(), 1u);
  // Segment 2: the rest of B.
  ASSERT_TRUE(mux_.OnSegment(1, frame_b.data() + 7, frame_b.size() - 7).ok());
  ASSERT_EQ(delivered_.size(), 2u);
  EXPECT_EQ(delivered_[1].message, b);
}

TEST_F(KcmTest, StreamsAreIndependent) {
  const auto payload = Message(0xCC, 8);
  const auto frame = KcmFrame(payload.data(), payload.size());
  // Interleave partial frames of two streams.
  ASSERT_TRUE(mux_.OnSegment(1, frame.data(), 4).ok());
  ASSERT_TRUE(mux_.OnSegment(2, frame.data(), frame.size()).ok());
  EXPECT_EQ(delivered_.size(), 1u);
  EXPECT_EQ(delivered_[0].stream, 2u);
  ASSERT_TRUE(mux_.OnSegment(1, frame.data() + 4, frame.size() - 4).ok());
  ASSERT_EQ(delivered_.size(), 2u);
  EXPECT_EQ(delivered_[1].stream, 1u);
  EXPECT_EQ(mux_.open_streams(), 2u);
  mux_.CloseStream(1);
  EXPECT_EQ(mux_.open_streams(), 1u);
}

TEST_F(KcmTest, PolicyRunsPerMessageNotPerSegment) {
  int policy_calls = 0;
  mux_.SetPolicy([&](const PacketView&) -> Decision {
    ++policy_calls;
    return 3;
  });
  const auto payload = Message(0x55, 40);
  const auto frame = KcmFrame(payload.data(), payload.size());
  // Deliver in 3 segments: the policy must still run exactly once.
  ASSERT_TRUE(mux_.OnSegment(1, frame.data(), 10).ok());
  ASSERT_TRUE(mux_.OnSegment(1, frame.data() + 10, 20).ok());
  ASSERT_TRUE(mux_.OnSegment(1, frame.data() + 30, frame.size() - 30).ok());
  EXPECT_EQ(policy_calls, 1);
  ASSERT_EQ(delivered_.size(), 1u);
  EXPECT_EQ(delivered_[0].decision, 3u);
}

TEST_F(KcmTest, SitaPolicyClassifiesReassembledRequests) {
  // The unchanged Fig. 5d policy schedules TCP-carried requests once KCM
  // has reassembled them.
  auto sita = std::make_shared<SitaPolicy>(6);
  mux_.SetPolicy([sita](const PacketView& view) {
    return sita->Schedule(view);
  });
  const auto scan = PacketMessage(ReqType::kScan);
  const auto get = PacketMessage(ReqType::kGet);
  const auto scan_frame = KcmFrame(scan.data(), scan.size());
  const auto get_frame = KcmFrame(get.data(), get.size());
  ASSERT_TRUE(mux_.OnSegment(1, scan_frame.data(), scan_frame.size()).ok());
  ASSERT_TRUE(mux_.OnSegment(1, get_frame.data(), get_frame.size()).ok());
  ASSERT_EQ(delivered_.size(), 2u);
  EXPECT_EQ(delivered_[0].decision, 0u);  // SCAN -> executor 0
  EXPECT_GE(delivered_[1].decision, 1u);  // GET -> executors 1..5
}

TEST_F(KcmTest, DropDecisionSwallowsMessage) {
  mux_.SetPolicy([](const PacketView&) { return kDrop; });
  const auto payload = Message(0x66, 5);
  const auto frame = KcmFrame(payload.data(), payload.size());
  ASSERT_TRUE(mux_.OnSegment(1, frame.data(), frame.size()).ok());
  EXPECT_TRUE(delivered_.empty());
  EXPECT_EQ(mux_.messages_dropped(), 1u);
}

TEST_F(KcmTest, MalformedLengthPoisonsStream) {
  uint8_t bad[4] = {0, 0, 1, 2};  // length 0: invalid
  const Status status = mux_.OnSegment(1, bad, sizeof(bad));
  EXPECT_FALSE(status.ok());
  // Further data on the poisoned stream is refused...
  const auto payload = Message(0x01, 3);
  const auto frame = KcmFrame(payload.data(), payload.size());
  EXPECT_FALSE(mux_.OnSegment(1, frame.data(), frame.size()).ok());
  // ...but other streams are unaffected.
  EXPECT_TRUE(mux_.OnSegment(2, frame.data(), frame.size()).ok());
  EXPECT_EQ(delivered_.size(), 1u);
}

TEST_F(KcmTest, OversizeLengthRejected) {
  // Length 0xFFFF exceeds kKcmMaxMessageSize.
  uint8_t bad[2] = {0xFF, 0xFF};
  EXPECT_FALSE(mux_.OnSegment(1, bad, sizeof(bad)).ok());
}

}  // namespace
}  // namespace syrup
