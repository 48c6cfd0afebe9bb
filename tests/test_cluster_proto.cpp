// Wire-protocol and DSM codec tests for the cluster process model
// (machdep/net.hpp, machdep/cluster.hpp dsm namespace).
//
// Everything here runs in one process - no forks - so it runs under every
// sanitizer; only the ClusterFrames cases open a socket pair, over each
// transport, to drive the one-write frame path against a real stream. The
// frame codec must reject truncated, oversized and
// version-mismatched input deterministically (never UB); the Reader must
// survive arbitrary bytes (it is the first thing hostile or corrupt input
// meets); and the diff/apply DSM half must keep a simulated coordinator and
// any number of peers bit-identical at release points under seeded-random
// message sequences - the portability claim for the software distributed
// arena, executed in miniature.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/socket.h>
#include <sys/time.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "machdep/cluster.hpp"
#include "machdep/net.hpp"
#include "util/check.hpp"

namespace net = force::machdep::net;
namespace dsm = force::machdep::cluster::dsm;

// --- frame header codec ------------------------------------------------------

TEST(ClusterProto, FrameHeaderRoundTrip) {
  net::FrameHeader in;
  in.type = static_cast<std::uint16_t>(net::MsgType::kBarrierArrive);
  in.payload_bytes = 12345;
  unsigned char buf[net::kFrameHeaderBytes];
  net::encode_frame_header(in, buf);

  net::FrameHeader out;
  ASSERT_EQ(net::decode_frame_header(buf, sizeof buf, &out),
            net::DecodeStatus::kOk);
  EXPECT_EQ(out.version, net::kProtocolVersion);
  EXPECT_EQ(out.type, in.type);
  EXPECT_EQ(out.payload_bytes, in.payload_bytes);
}

TEST(ClusterProto, TruncatedHeaderNeedsMore) {
  net::FrameHeader in;
  unsigned char buf[net::kFrameHeaderBytes];
  net::encode_frame_header(in, buf);
  net::FrameHeader out;
  for (std::size_t len = 0; len < net::kFrameHeaderBytes; ++len) {
    EXPECT_EQ(net::decode_frame_header(buf, len, &out),
              net::DecodeStatus::kNeedMore)
        << "len " << len;
  }
}

TEST(ClusterProto, BadMagicRejected) {
  net::FrameHeader in;
  unsigned char buf[net::kFrameHeaderBytes];
  net::encode_frame_header(in, buf);
  buf[0] ^= 0xFF;
  net::FrameHeader out;
  EXPECT_EQ(net::decode_frame_header(buf, sizeof buf, &out),
            net::DecodeStatus::kBadMagic);
}

TEST(ClusterProto, VersionMismatchRejected) {
  net::FrameHeader in;
  unsigned char buf[net::kFrameHeaderBytes];
  net::encode_frame_header(in, buf);
  // The version field sits at bytes [4, 6); a peer speaking revision N+1
  // must be turned away, not misparsed.
  buf[4] ^= 0x01;
  net::FrameHeader out;
  EXPECT_EQ(net::decode_frame_header(buf, sizeof buf, &out),
            net::DecodeStatus::kBadVersion);
}

TEST(ClusterProto, VersionOneHeaderRejected) {
  // Version 1 sent release records in a separate frame ahead of the
  // request, and version 2 answered each construct with its own reply
  // type; a version-3 coordinator must refuse either stream outright.
  for (const std::uint16_t version : {std::uint16_t{1}, std::uint16_t{2}}) {
    net::FrameHeader in;
    in.version = version;
    in.type = static_cast<std::uint16_t>(net::MsgType::kBarrierArrive);
    unsigned char buf[net::kFrameHeaderBytes];
    net::encode_frame_header(in, buf);
    net::FrameHeader out;
    EXPECT_EQ(net::decode_frame_header(buf, sizeof buf, &out),
              net::DecodeStatus::kBadVersion)
        << "version " << version;
  }
}

TEST(ClusterProto, OversizedPayloadRejected) {
  net::FrameHeader in;
  in.payload_bytes = net::kMaxPayloadBytes + 1;
  unsigned char buf[net::kFrameHeaderBytes];
  net::encode_frame_header(in, buf);
  net::FrameHeader out;
  EXPECT_EQ(net::decode_frame_header(buf, sizeof buf, &out),
            net::DecodeStatus::kOversized);
  // The boundary itself is legal.
  in.payload_bytes = net::kMaxPayloadBytes;
  net::encode_frame_header(in, buf);
  EXPECT_EQ(net::decode_frame_header(buf, sizeof buf, &out),
            net::DecodeStatus::kOk);
}

// --- payload writer/reader ---------------------------------------------------

TEST(ClusterProto, WriterReaderRoundTrip) {
  net::Writer w;
  w.u8(7);
  w.u16(0xBEEF);
  w.u32(0xDEADBEEFu);
  w.u64(0x0123456789ABCDEFull);
  w.i64(-42);
  w.str("barrier 'saxpy'");
  const unsigned char blob[] = {1, 2, 3, 4, 5};
  w.bytes(blob, sizeof blob);

  net::Reader r(w.data());
  std::uint8_t a = 0;
  std::uint16_t b = 0;
  std::uint32_t c = 0;
  std::uint64_t d = 0;
  std::int64_t e = 0;
  std::string s;
  std::vector<unsigned char> v;
  ASSERT_TRUE(r.u8(&a));
  ASSERT_TRUE(r.u16(&b));
  ASSERT_TRUE(r.u32(&c));
  ASSERT_TRUE(r.u64(&d));
  ASSERT_TRUE(r.i64(&e));
  ASSERT_TRUE(r.str(&s));
  ASSERT_TRUE(r.bytes(&v));
  EXPECT_EQ(a, 7);
  EXPECT_EQ(b, 0xBEEF);
  EXPECT_EQ(c, 0xDEADBEEFu);
  EXPECT_EQ(d, 0x0123456789ABCDEFull);
  EXPECT_EQ(e, -42);
  EXPECT_EQ(s, "barrier 'saxpy'");
  EXPECT_EQ(v, std::vector<unsigned char>(blob, blob + sizeof blob));
  EXPECT_TRUE(r.exhausted());
}

TEST(ClusterProto, ReaderTruncationLatchesInsteadOfOverreading) {
  net::Writer w;
  w.u64(1);
  w.str("key");
  const std::vector<unsigned char>& full = w.data();
  // Every possible truncation point: the reader must fail cleanly, stay
  // failed, and never read past the end.
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    net::Reader r(full.data(), cut);
    std::uint64_t x = 0;
    std::string s;
    const bool got_both = r.u64(&x) && r.str(&s);
    EXPECT_FALSE(got_both) << "cut " << cut;
    EXPECT_FALSE(r.ok()) << "cut " << cut;
    // Latched: subsequent reads keep failing even if bytes remain.
    std::uint8_t y = 0;
    EXPECT_FALSE(r.u8(&y)) << "cut " << cut;
  }
}

TEST(ClusterProto, ReaderSurvivesArbitraryBytes) {
  // Seeded-random fuzz: arbitrary byte soup through every getter in a
  // rotating pattern. The assertions are "no UB / no crash" (the sanitizer
  // jobs give this test its teeth) plus the ok()-latch invariant.
  std::mt19937 rng(0xF0C5u);
  for (int round = 0; round < 2000; ++round) {
    std::vector<unsigned char> soup(rng() % 64);
    for (auto& b : soup) b = static_cast<unsigned char>(rng());
    net::Reader r(soup);
    bool prev_ok = true;
    for (int op = 0; op < 16; ++op) {
      bool got = false;
      switch (op % 7) {
        case 0: { std::uint8_t v; got = r.u8(&v); break; }
        case 1: { std::uint16_t v; got = r.u16(&v); break; }
        case 2: { std::uint32_t v; got = r.u32(&v); break; }
        case 3: { std::uint64_t v; got = r.u64(&v); break; }
        case 4: { std::string v; got = r.str(&v); break; }
        case 5: { std::vector<unsigned char> v; got = r.bytes(&v); break; }
        default: {
          const unsigned char* p = nullptr;
          std::size_t n = 0;
          got = r.view(&p, &n);
          // A view never reaches past the span it was cut from.
          if (got) {
            EXPECT_GE(p, soup.data());
            EXPECT_LE(p + n, soup.data() + soup.size());
          }
          break;
        }
      }
      // The ok() latch never recovers: once a read fails, all fail.
      if (!prev_ok) {
        EXPECT_FALSE(got);
      }
      prev_ok = prev_ok && got;
      EXPECT_EQ(r.ok(), prev_ok);
    }
  }
}

// --- DSM records codec -------------------------------------------------------

namespace {

/// Copies a records block out of the Reader through the in-place visitor.
bool decode(net::Reader* r, std::vector<dsm::Record>* out) {
  out->clear();
  return dsm::visit_records(
      r, [out](std::uint64_t offset, const unsigned char* data,
               std::size_t n) {
        out->push_back({offset, std::vector<unsigned char>(data, data + n)});
      });
}

}  // namespace

TEST(ClusterProto, RecordsRoundTrip) {
  std::vector<dsm::Record> in;
  in.push_back({0, {1, 2, 3}});
  in.push_back({4096, {0xFF}});
  in.push_back({77, {}});

  net::Writer w;
  dsm::encode_records(&w, in);
  net::Reader r(w.data());
  std::vector<dsm::Record> out;
  ASSERT_TRUE(decode(&r, &out));
  ASSERT_EQ(out.size(), in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_EQ(out[i].offset, in[i].offset);
    EXPECT_EQ(out[i].bytes, in[i].bytes);
  }
  EXPECT_TRUE(r.exhausted());
}

TEST(ClusterProto, TruncatedRecordsRejected) {
  std::vector<dsm::Record> in;
  in.push_back({10, {9, 8, 7, 6}});
  net::Writer w;
  dsm::encode_records(&w, in);
  const std::vector<unsigned char>& full = w.data();
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    net::Reader r(full.data(), cut);
    std::vector<dsm::Record> out;
    EXPECT_FALSE(decode(&r, &out)) << "cut " << cut;
  }
}

// --- diff/apply --------------------------------------------------------------

TEST(ClusterDsm, DiffFindsCoalescedRunsAndSyncsShadow) {
  std::vector<unsigned char> image(256, 0);
  std::vector<unsigned char> shadow;  // zero-extended by diff
  image[10] = 1;
  image[11] = 2;
  image[12] = 3;
  image[100] = 9;

  const auto recs = dsm::diff(image.data(), image.size(), &shadow);
  ASSERT_EQ(recs.size(), 2u);
  EXPECT_EQ(recs[0].offset, 10u);
  EXPECT_EQ(recs[0].bytes, (std::vector<unsigned char>{1, 2, 3}));
  EXPECT_EQ(recs[1].offset, 100u);
  EXPECT_EQ(recs[1].bytes, (std::vector<unsigned char>{9}));

  // The shadow now matches: a second diff is empty.
  EXPECT_TRUE(dsm::diff(image.data(), image.size(), &shadow).empty());
}

TEST(ClusterDsm, ApplyReconstructsTheImage) {
  std::vector<unsigned char> image(512, 0);
  std::vector<unsigned char> shadow;
  std::mt19937 rng(0xA12Eu);
  for (int i = 0; i < 100; ++i) {
    image[rng() % image.size()] = static_cast<unsigned char>(rng());
  }
  const auto recs = dsm::diff(image.data(), image.size(), &shadow);

  std::vector<unsigned char> master;
  dsm::apply(&master, recs, image.size());
  master.resize(image.size(), 0);
  EXPECT_EQ(master, image);
}

namespace {

constexpr std::size_t kBlock = dsm::kDiffBlockBytes;

/// The diff's contract without its fast paths: one record per maximal run
/// of bytes that differ from the zero-extended shadow.
std::vector<dsm::Record> reference_diff(const std::vector<unsigned char>& data,
                                        std::size_t n,
                                        std::vector<unsigned char> shadow) {
  shadow.resize(std::max(shadow.size(), n), 0);
  std::vector<dsm::Record> out;
  for (std::size_t i = 0; i < n;) {
    if (data[i] == shadow[i]) {
      ++i;
      continue;
    }
    std::size_t j = i;
    while (j < n && data[j] != shadow[j]) ++j;
    out.push_back(
        {i, std::vector<unsigned char>(&data[i], &data[i] + (j - i))});
    i = j;
  }
  return out;
}

}  // namespace

TEST(ClusterDsm, PageWrittenBackToItsOldContentsShipsNothing) {
  std::vector<unsigned char> image(3 * kBlock);
  std::mt19937 rng(0xB10Cu);
  for (auto& b : image) b = static_cast<unsigned char>(rng());
  std::vector<unsigned char> shadow = image;
  const std::vector<unsigned char> page(image.begin() + kBlock,
                                        image.begin() + 2 * kBlock);
  // Scribble over the whole middle page, then put every byte back.
  for (std::size_t i = kBlock; i < 2 * kBlock; ++i) image[i] ^= 0x5A;
  std::copy(page.begin(), page.end(), image.begin() + kBlock);
  EXPECT_TRUE(dsm::diff(image.data(), image.size(), &shadow).empty());
  EXPECT_EQ(shadow, image);
}

TEST(ClusterDsm, LastByteOfABlockIsOneExactRecord) {
  std::vector<unsigned char> image(3 * kBlock, 0);
  std::vector<unsigned char> shadow = image;
  image[2 * kBlock - 1] = 0x77;
  const auto recs = dsm::diff(image.data(), image.size(), &shadow);
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].offset, 2 * kBlock - 1);
  EXPECT_EQ(recs[0].bytes, (std::vector<unsigned char>{0x77}));
  EXPECT_EQ(shadow, image);
}

TEST(ClusterDsm, RunStraddlingABlockBoundaryIsOneExactRecord) {
  std::vector<unsigned char> image(3 * kBlock, 0);
  std::vector<unsigned char> shadow = image;
  // 13 bytes before the boundary, 11 after: one run, not two.
  for (std::size_t i = kBlock - 13; i < kBlock + 11; ++i) {
    image[i] = static_cast<unsigned char>(i | 1);
  }
  const auto recs = dsm::diff(image.data(), image.size(), &shadow);
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].offset, kBlock - 13);
  EXPECT_EQ(recs[0].bytes.size(), 24u);
  EXPECT_EQ(shadow, image);
}

TEST(ClusterDsm, LengthThatIsNotAWholeNumberOfBlocks) {
  constexpr std::size_t kN = 2 * kBlock + 37;
  // Bytes past n differ too; the diff must neither read nor ship them.
  std::vector<unsigned char> image(kN + 64, 0);
  std::vector<unsigned char> shadow(kN, 0);
  for (std::size_t i = kN; i < image.size(); ++i) image[i] = 0xEE;
  image[2 * kBlock + 5] = 1;
  image[kN - 1] = 2;
  const auto recs = dsm::diff(image.data(), kN, &shadow);
  ASSERT_EQ(recs.size(), 2u);
  EXPECT_EQ(recs[0].offset, 2 * kBlock + 5);
  EXPECT_EQ(recs[1].offset, kN - 1);
  EXPECT_EQ(recs[1].bytes, (std::vector<unsigned char>{2}));
  EXPECT_EQ(shadow.size(), kN);
  EXPECT_TRUE(dsm::diff(image.data(), kN, &shadow).empty());
}

TEST(ClusterDsm, ShorterShadowIsZeroExtended) {
  constexpr std::size_t kN = 3 * kBlock;
  std::vector<unsigned char> image(kN, 0);
  std::vector<unsigned char> shadow(kBlock + 10, 0);
  image[3] = 4;             // inside the old shadow
  image[kBlock + 20] = 5;   // just past its end
  image[2 * kBlock + 1] = 6;  // in a block the shadow never covered
  const auto recs = dsm::diff(image.data(), kN, &shadow);
  ASSERT_EQ(recs.size(), 3u);
  EXPECT_EQ(recs[0].offset, 3u);
  EXPECT_EQ(recs[1].offset, kBlock + 20);
  EXPECT_EQ(recs[2].offset, 2 * kBlock + 1);
  EXPECT_EQ(shadow, image);
}

TEST(ClusterDsm, DiffMatchesTheByteReference) {
  // Seeded sparse and dense write patterns over lengths around the block
  // and word edges: the fast paths must find exactly the reference runs.
  std::mt19937 rng(0xD1FFu);
  const std::size_t lengths[] = {1,          7,          8,
                                 kBlock - 1, kBlock,     kBlock + 1,
                                 kBlock + 9, 3 * kBlock, 3 * kBlock + 123};
  for (const std::size_t n : lengths) {
    for (int round = 0; round < 40; ++round) {
      std::vector<unsigned char> shadow(n);
      for (auto& b : shadow) b = static_cast<unsigned char>(rng() % 4);
      std::vector<unsigned char> image = shadow;
      const std::size_t writes = round % 2 == 0 ? 1 + rng() % 4 : n / 3 + 1;
      for (std::size_t w = 0; w < writes; ++w) {
        // Half the writes land within 8 bytes of a block edge.
        std::size_t at = rng() % n;
        if (rng() % 2 == 0) {
          const std::size_t edge = (rng() % (n / kBlock + 1)) * kBlock;
          at = (edge + rng() % 16 + n - 8) % n;
        }
        image[at] = static_cast<unsigned char>(1 + rng() % 3);
      }
      SCOPED_TRACE("n " + std::to_string(n) + " round " +
                   std::to_string(round));
      const auto want = reference_diff(image, n, shadow);
      const auto got = dsm::diff(image.data(), n, &shadow);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t k = 0; k < got.size(); ++k) {
        EXPECT_EQ(got[k].offset, want[k].offset) << "record " << k;
        EXPECT_EQ(got[k].bytes, want[k].bytes) << "record " << k;
      }
      EXPECT_EQ(shadow, image);
    }
  }
}

TEST(ClusterDsm, EncodedDiffIsByteIdenticalToTheEncodedRecords) {
  // A peer's release flush writes the diff's runs straight into its
  // request after whatever the request already holds; the bytes must be
  // those of the records block built from diff(), and the shadow must end
  // the same.
  std::mt19937 rng(0xE7C0u);
  net::Writer want;
  net::Writer got;
  net::Writer again;
  for (const std::size_t n : {std::size_t{0}, std::size_t{5}, kBlock + 3,
                              4 * kBlock + 77}) {
    for (int round = 0; round < 20; ++round) {
      std::vector<unsigned char> shadow(n);
      for (auto& b : shadow) b = static_cast<unsigned char>(rng() % 4);
      std::vector<unsigned char> image = shadow;
      const std::size_t writes = n == 0 ? 0 : rng() % (n / 4 + 2);
      for (std::size_t w = 0; w < writes; ++w) {
        image[rng() % n] = static_cast<unsigned char>(rng());
      }
      SCOPED_TRACE("n " + std::to_string(n) + " round " +
                   std::to_string(round));
      std::vector<unsigned char> shadow_want = shadow;
      // A prefix, as a request's would be, in a Writer reused across
      // rounds.
      want.clear();
      want.str("prefix");
      dsm::encode_records(&want,
                          dsm::diff(image.data(), n, &shadow_want));
      got.clear();
      got.str("prefix");
      dsm::encode_diff(&got, image.data(), n, &shadow);
      EXPECT_EQ(got.data(), want.data());
      EXPECT_EQ(shadow, shadow_want);
      // The same Writer, cleared, encodes the next flush alone.
      std::vector<unsigned char> zeros(n, 0);
      std::vector<unsigned char> zeros_want(n, 0);
      again.clear();
      dsm::encode_records(&again, dsm::diff(image.data(), n, &zeros_want));
      got.clear();
      dsm::encode_diff(&got, image.data(), n, &zeros);
      EXPECT_EQ(got.data(), again.data());
    }
  }
}

TEST(ClusterDsm, SeededMessageSequenceFuzzIsDeterministicAtReleasePoints) {
  // A miniature cluster run, all in-process: kPeers images diverge through
  // random private writes, flush at random moments into a global update
  // log whose entries carry their author (the coordinator), and receive
  // the log suffix they have not seen, minus their own entries, both at
  // random moments (any reply is an acquire) and at "barriers". Each phase
  // gives every 16-byte stripe to one peer, and the owner rotates at every
  // barrier - the Force's data-race-free discipline, with writes that
  // overlap across phases. After every barrier all images and the master
  // must be bit-identical - the deterministic-release-point contract the
  // real transport relies on. It runs on a one-block arena with dense
  // writes and on arenas of several blocks (one not a whole number of
  // blocks) whose writes leave most blocks clean.
  constexpr int kPeers = 4;
  constexpr int kBarriers = 20;
  struct Entry {
    dsm::Record rec;
    int author;
  };
  for (const std::size_t kBytes : {std::size_t{1024}, 3 * kBlock + 77,
                                   6 * kBlock}) {
    SCOPED_TRACE("arena bytes " + std::to_string(kBytes));
    std::mt19937 rng(0x5EEDu);
    std::vector<unsigned char> master(kBytes, 0);
    std::vector<Entry> log;
    std::vector<std::size_t> synced(kPeers, 0);  // log index each peer has seen
    std::vector<std::vector<unsigned char>> image(
        kPeers, std::vector<unsigned char>(kBytes, 0));
    std::vector<std::vector<unsigned char>> shadow(kPeers);

    const auto flush = [&](int p) {
      // Peer p ships its dirty runs... (wire round-trip included: encode,
      // decode, then append to the coordinator's log + master image)
      const auto recs = dsm::diff(image[static_cast<std::size_t>(p)].data(),
                                  kBytes,
                                  &shadow[static_cast<std::size_t>(p)]);
      if (recs.empty()) return;
      net::Writer w;
      dsm::encode_records(&w, recs);
      net::Reader r(w.data());
      std::vector<dsm::Record> decoded;
      ASSERT_TRUE(decode(&r, &decoded));
      dsm::apply(&master, decoded, kBytes);
      master.resize(kBytes, 0);
      for (auto& rec : decoded) log.push_back({std::move(rec), p});
    };
    const auto deliver = [&](int p) {
      // ...and applies the others' entries it has not seen to image AND
      // shadow.
      const auto sp = static_cast<std::size_t>(p);
      for (std::size_t i = synced[sp]; i < log.size(); ++i) {
        if (log[i].author == p) continue;
        dsm::apply(&image[sp], {log[i].rec}, kBytes);
        dsm::apply(&shadow[sp], {log[i].rec}, kBytes);
      }
      image[sp].resize(kBytes, 0);
      synced[sp] = log.size();
    };

    for (int b = 0; b < kBarriers; ++b) {
      // Random phase: interleaved private writes, voluntary flushes and
      // replies.
      for (int step = 0; step < 200; ++step) {
        const int p = static_cast<int>(rng() % kPeers);
        const unsigned pick = rng() % 8;
        if (pick == 0) {
          flush(p);
        } else if (pick == 1) {
          deliver(p);
        } else {
          // Stripe s belongs to peer (s + b) % kPeers this phase.
          const std::size_t stripe =
              (rng() % (kBytes / 16 / kPeers)) * kPeers +
              static_cast<std::size_t>((p + kPeers - b % kPeers) % kPeers);
          const std::size_t off = stripe * 16 + rng() % 16;
          image[static_cast<std::size_t>(p)][off] =
              static_cast<unsigned char>(rng());
        }
      }
      // Barrier: everyone flushes, then everyone receives the full log.
      for (int p = 0; p < kPeers; ++p) flush(p);
      for (int p = 0; p < kPeers; ++p) deliver(p);
      for (int p = 0; p < kPeers; ++p) {
        ASSERT_EQ(image[static_cast<std::size_t>(p)], master)
            << "peer " << p << " diverged after barrier " << b;
      }
      // The shadows converged too: an idle peer flushes nothing.
      for (int p = 0; p < kPeers; ++p) {
        EXPECT_TRUE(dsm::diff(image[static_cast<std::size_t>(p)].data(),
                              kBytes, &shadow[static_cast<std::size_t>(p)])
                        .empty())
            << "peer " << p << " shadow drifted after barrier " << b;
      }
    }
  }
}

// --- one-write frames over a real socket pair -------------------------------

class ClusterFrames : public ::testing::TestWithParam<net::Transport> {
 protected:
  void SetUp() override {
    auto pair = net::connected_pair(GetParam());
    sender_ = std::move(pair.second);
    receiver_ = std::move(pair.first);
  }

  net::Conn sender_;
  net::Conn receiver_;
};

TEST_P(ClusterFrames, PayloadAboveTheSocketBufferArrivesWholeToASlowReader) {
  // A small non-blocking send buffer forces the frame out in many partial
  // sendmsg writes with EAGAIN waits between them; the reader only starts
  // after the writer has filled the buffer.
  const int small = 16 * 1024;
  ASSERT_EQ(::setsockopt(sender_.fd(), SOL_SOCKET, SO_SNDBUF, &small,
                         sizeof small),
            0);
  ASSERT_EQ(::fcntl(sender_.fd(), F_SETFL,
                    ::fcntl(sender_.fd(), F_GETFL) | O_NONBLOCK),
            0);
  // A frame cut short fails the read after this long instead of hanging.
  const timeval patience{10, 0};
  ASSERT_EQ(::setsockopt(receiver_.fd(), SOL_SOCKET, SO_RCVTIMEO, &patience,
                         sizeof patience),
            0);
  std::vector<unsigned char> big(1u << 20);
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<unsigned char>(i * 2654435761u >> 13);
  }
  bool sent = false;
  std::thread writer([&] {
    try {
      sender_.send_frame(net::MsgType::kAskforPut, big);
      sent = true;
    } catch (const force::util::CheckError&) {
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  net::MsgType type{};
  std::vector<unsigned char> got;
  bool received = false;
  try {
    received = receiver_.recv_frame(&type, &got);
  } catch (const force::util::CheckError& e) {
    ADD_FAILURE() << e.what();
  }
  receiver_.close();  // a writer still blocked now sees the far side gone
  writer.join();
  EXPECT_TRUE(sent);
  ASSERT_TRUE(received);
  EXPECT_EQ(type, net::MsgType::kAskforPut);
  EXPECT_EQ(got, big);
}

TEST_P(ClusterFrames, ZeroLengthPayload) {
  // The team-death frame is the one frame with no payload at all.
  sender_.send_frame(net::MsgType::kPoison, nullptr, 0);
  net::MsgType type{};
  std::vector<unsigned char> got(3, 0xAA);
  ASSERT_TRUE(receiver_.recv_frame(&type, &got));
  EXPECT_EQ(type, net::MsgType::kPoison);
  EXPECT_TRUE(got.empty());
}

TEST_P(ClusterFrames, BackToBackFramesAreBothParsed) {
  net::Writer first;
  first.str("barrier 'x'");
  net::Writer second;
  second.u64(42);
  sender_.send_frame(net::MsgType::kBarrierArrive, first.data());
  sender_.send_frame(net::MsgType::kDispatchClaim, second.data());
  net::MsgType type{};
  std::vector<unsigned char> got;
  ASSERT_TRUE(receiver_.recv_frame(&type, &got));
  EXPECT_EQ(type, net::MsgType::kBarrierArrive);
  EXPECT_EQ(got, first.data());
  ASSERT_TRUE(receiver_.recv_frame(&type, &got));
  EXPECT_EQ(type, net::MsgType::kDispatchClaim);
  EXPECT_EQ(got, second.data());
  // An orderly close after the last frame reads as end of stream.
  sender_.close();
  EXPECT_FALSE(receiver_.recv_frame(&type, &got));
}

TEST_P(ClusterFrames, VersionOneFrameIsRejectedOnTheWire) {
  // Versions 1 and 2 both; each frame goes down a fresh connection, since
  // a rejected header leaves its stream unusable.
  for (const std::uint16_t version : {std::uint16_t{1}, std::uint16_t{2}}) {
    SCOPED_TRACE("version " + std::to_string(version));
    auto [receiver, sender] = net::connected_pair(GetParam());
    net::FrameHeader h;
    h.version = version;
    h.type = static_cast<std::uint16_t>(net::MsgType::kJoin);
    unsigned char hdr[net::kFrameHeaderBytes];
    net::encode_frame_header(h, hdr);
    ASSERT_EQ(::send(sender.fd(), hdr, sizeof hdr, MSG_NOSIGNAL),
              static_cast<ssize_t>(sizeof hdr));
    net::MsgType type{};
    std::vector<unsigned char> got;
    try {
      (void)receiver.recv_frame(&type, &got);
      ADD_FAILURE() << "expected the old-version frame to be rejected";
    } catch (const force::util::CheckError& e) {
      EXPECT_NE(std::string(e.what()).find("protocol version mismatch"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST_P(ClusterFrames, AFrameLaterThanTheSpinWindowIsWaitedForInTheKernel) {
  // The reader spins for a team window, finds nothing, and blocks; the
  // frame arrives long after and is read whole.
  constexpr std::int64_t kWindowNs = 50'000;
  net::Writer payload;
  payload.str("late reply");
  std::thread writer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    sender_.send_frame(net::MsgType::kReply, payload.data());
  });
  net::MsgType type{};
  const unsigned char* body = nullptr;
  std::size_t n = 0;
  const bool received = receiver_.recv_frame(&type, &body, &n, kWindowNs);
  writer.join();
  ASSERT_TRUE(received);
  EXPECT_EQ(type, net::MsgType::kReply);
  EXPECT_EQ(std::vector<unsigned char>(body, body + n), payload.data());
}

TEST_P(ClusterFrames, OneReadCarriesEveryFrameQueuedBehindIt) {
  // Frames already queued are read together and handed out one by one
  // from the connection's buffer, each view whole.
  for (std::uint64_t k = 0; k < 3; ++k) {
    net::Writer w;
    w.u64(k);
    sender_.send_frame(net::MsgType::kReply, w.data());
  }
  net::MsgType type{};
  const unsigned char* body = nullptr;
  std::size_t n = 0;
  for (std::uint64_t k = 0; k < 3; ++k) {
    ASSERT_TRUE(receiver_.recv_frame(&type, &body, &n, 50'000));
    net::Reader r(body, n);
    std::uint64_t v = 99;
    ASSERT_TRUE(r.u64(&v));
    EXPECT_EQ(v, k);
    EXPECT_TRUE(r.exhausted());
  }
  EXPECT_EQ(receiver_.next_frame(&type, &body, &n),
            net::DecodeStatus::kNeedMore);
}

TEST_P(ClusterFrames, PollSetReportsOnlyTheConnectionWithInput) {
  auto [quiet_coord, quiet_peer] = net::connected_pair(GetParam());
  net::PollSet set;
  set.add(quiet_coord.fd());
  set.add(receiver_.fd());
  EXPECT_FALSE(set.poll(0));  // a probe: nothing has arrived yet
  sender_.send_frame(net::MsgType::kJoin, nullptr, 0);
  ASSERT_TRUE(set.poll(1000));
  EXPECT_FALSE(set.ready(0));
  EXPECT_TRUE(set.ready(1));
  EXPECT_GT(receiver_.fill(), 0);
  net::MsgType type{};
  const unsigned char* body = nullptr;
  std::size_t n = 0;
  ASSERT_EQ(receiver_.next_frame(&type, &body, &n), net::DecodeStatus::kOk);
  EXPECT_EQ(type, net::MsgType::kJoin);
  EXPECT_EQ(n, 0u);
}

TEST_P(ClusterFrames, SendToAClosedPeerReportsTheFarSideGone) {
  receiver_.close();
  const unsigned char byte = 1;
  // The first write may still land in the dead socket's buffer on tcp; a
  // few more surface the reset.
  bool ok = true;
  for (int i = 0; i < 64 && ok; ++i) {
    ok = net::write_frame(sender_.fd(), net::MsgType::kError, &byte, 1);
  }
  EXPECT_FALSE(ok);
}

INSTANTIATE_TEST_SUITE_P(
    Transports, ClusterFrames,
    ::testing::Values(net::Transport::kUnix, net::Transport::kTcp),
    [](const ::testing::TestParamInfo<net::Transport>& info) {
      return std::string(info.param == net::Transport::kUnix ? "unix"
                                                             : "tcp");
    });
