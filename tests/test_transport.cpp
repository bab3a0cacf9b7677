// Tests for the transport subsystem: the adversarial frame-parser surface
// (every read split, oversized announcements, crc corruption, interleaved
// garbage, handshake replays), the send queue and deadline machinery, the
// protocol codecs, loopback bit-parity of the transport server runtime
// against the in-process engine, deterministic chaos (corruption, abrupt
// disconnects with session resume, dead clients, backpressure, slowloris
// eviction), crash-and-resume from commit-boundary checkpoints, and the
// epoll TCP backend end-to-end over localhost, its backpressure and partial
// writes included.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "../tools/transport_demo.hpp"
#include "baselines/fedavg.hpp"
#include "baselines/heterofl.hpp"
#include "baselines/unit_mask.hpp"
#include "common/check.hpp"
#include "fl/scheduler.hpp"
#include "fl/strategy.hpp"
#include "nn/mlp_model.hpp"
#include "transport/client_runtime.hpp"
#include "transport/epoll.hpp"
#include "transport/frame.hpp"
#include "transport/loopback.hpp"
#include "transport/protocol.hpp"
#include "transport/server_runtime.hpp"
#include "wire/accounting.hpp"
#include "wire/compact.hpp"
#include "wire/crc32c.hpp"
#include "wire/reader.hpp"
#include "wire/shared_bytes.hpp"
#include "wire/update_codec.hpp"

namespace fedbiad {
namespace {

using transport::Frame;
using transport::FrameParser;
using transport::FrameType;
using transport::SessionId;

std::vector<std::uint8_t> wire_of(FrameType type,
                                  std::span<const std::uint8_t> body) {
  std::vector<std::uint8_t> out;
  transport::append_frame(out, type, body);
  return out;
}

std::vector<std::uint8_t> some_body(std::size_t n, std::uint64_t seed) {
  std::vector<std::uint8_t> b(n);
  tensor::Rng rng(seed);
  for (auto& x : b) x = static_cast<std::uint8_t>(rng.uniform_index(256));
  return b;
}

// --- frame parser: adversarial byte streams -------------------------------

TEST(FrameCodec, RoundTripAllTypes) {
  for (const auto type :
       {FrameType::kHello, FrameType::kWelcome, FrameType::kDispatch,
        FrameType::kUpload, FrameType::kUploadAck, FrameType::kReject,
        FrameType::kFin}) {
    const auto body = some_body(37, static_cast<std::uint64_t>(type));
    const auto wire = wire_of(type, body);
    EXPECT_EQ(wire.size(), transport::frame_wire_size(body.size()));
    FrameParser parser(1 << 20);
    parser.feed(wire);
    Frame f;
    ASSERT_EQ(parser.next(f), FrameParser::Status::kFrame);
    EXPECT_EQ(f.type, type);
    EXPECT_EQ(f.body, body);
    EXPECT_EQ(parser.next(f), FrameParser::Status::kNeedMore);
    EXPECT_EQ(parser.buffered_bytes(), 0u);
  }
}

TEST(FrameCodec, EverySplitPointReassembles) {
  // Three frames back to back, fed in two chunks cut at every offset —
  // including inside the length prefix and inside the crc.
  std::vector<std::uint8_t> stream;
  const auto b1 = some_body(11, 1);
  const auto b2 = some_body(0, 2);
  const auto b3 = some_body(63, 3);
  transport::append_frame(stream, FrameType::kUpload, b1);
  transport::append_frame(stream, FrameType::kFin, b2);
  transport::append_frame(stream, FrameType::kDispatch, b3);
  for (std::size_t cut = 0; cut <= stream.size(); ++cut) {
    FrameParser parser(1 << 20);
    const std::span<const std::uint8_t> all(stream);
    parser.feed(all.first(cut));
    parser.feed(all.subspan(cut));
    Frame f;
    ASSERT_EQ(parser.next(f), FrameParser::Status::kFrame) << cut;
    EXPECT_EQ(f.body, b1) << cut;
    ASSERT_EQ(parser.next(f), FrameParser::Status::kFrame) << cut;
    EXPECT_EQ(f.type, FrameType::kFin) << cut;
    ASSERT_EQ(parser.next(f), FrameParser::Status::kFrame) << cut;
    EXPECT_EQ(f.body, b3) << cut;
    EXPECT_EQ(parser.next(f), FrameParser::Status::kNeedMore) << cut;
  }
}

TEST(FrameCodec, ByteAtATime) {
  const auto body = some_body(29, 4);
  const auto wire = wire_of(FrameType::kWelcome, body);
  FrameParser parser(1 << 20);
  Frame f;
  for (std::size_t i = 0; i + 1 < wire.size(); ++i) {
    parser.feed({&wire[i], 1});
    ASSERT_EQ(parser.next(f), FrameParser::Status::kNeedMore) << i;
  }
  parser.feed({&wire.back(), 1});
  ASSERT_EQ(parser.next(f), FrameParser::Status::kFrame);
  EXPECT_EQ(f.body, body);
}

TEST(FrameCodec, OversizedAnnouncementRejectedBeforeBody) {
  // A 4GiB-announcing prefix must fail as soon as the length is readable,
  // without waiting for (or buffering) any body byte.
  FrameParser parser(4096);
  const std::uint8_t huge[4] = {0xFF, 0xFF, 0xFF, 0xFF};
  parser.feed(huge);
  Frame f;
  EXPECT_EQ(parser.next(f), FrameParser::Status::kError);
  EXPECT_NE(parser.error().find("exceeds"), std::string::npos);
}

TEST(FrameCodec, BelowMinimumLengthRejected) {
  FrameParser parser(4096);
  const std::uint8_t tiny[4] = {4, 0, 0, 0};  // len 4 < 5: no room for crc
  parser.feed(tiny);
  Frame f;
  EXPECT_EQ(parser.next(f), FrameParser::Status::kError);
  EXPECT_NE(parser.error().find("minimum"), std::string::npos);
}

TEST(FrameCodec, EverySingleByteCorruptionDetected) {
  const auto body = some_body(16, 5);
  const auto wire = wire_of(FrameType::kUpload, body);
  // Skip the length prefix: corrupting it changes the claimed size, which
  // is a different (also rejected) failure mode tested separately.
  for (std::size_t i = 4; i < wire.size(); ++i) {
    auto bad = wire;
    bad[i] ^= 0x01;
    FrameParser parser(1 << 20);
    parser.feed(bad);
    Frame f;
    const auto status = parser.next(f);
    EXPECT_EQ(status, FrameParser::Status::kError) << "byte " << i;
  }
}

TEST(FrameCodec, UnknownTypeRejected) {
  std::vector<std::uint8_t> wire;
  transport::append_frame(wire, static_cast<FrameType>(0x7F), some_body(3, 6));
  FrameParser parser(1 << 20);
  parser.feed(wire);
  Frame f;
  EXPECT_EQ(parser.next(f), FrameParser::Status::kError);
  EXPECT_NE(parser.error().find("unknown frame type"), std::string::npos);
}

TEST(FrameCodec, ErrorIsStickyAndDropsLaterBytes) {
  FrameParser parser(1 << 20);
  const auto good = wire_of(FrameType::kFin, some_body(2, 7));
  auto bad = good;
  bad[5] ^= 0xFF;  // corrupt the type/body region
  parser.feed(bad);
  Frame f;
  ASSERT_EQ(parser.next(f), FrameParser::Status::kError);
  const std::string first_error = parser.error();
  parser.feed(good);  // a pristine frame after poison must not resurrect
  EXPECT_EQ(parser.next(f), FrameParser::Status::kError);
  EXPECT_EQ(parser.error(), first_error);
  EXPECT_EQ(parser.buffered_bytes(), 0u);
  EXPECT_TRUE(parser.failed());
}

TEST(FrameCodec, GoodFrameThenInterleavedGarbage) {
  const auto body = some_body(21, 8);
  auto stream = wire_of(FrameType::kUpload, body);
  const auto garbage = some_body(64, 9);
  stream.insert(stream.end(), garbage.begin(), garbage.end());
  FrameParser parser(1 << 20);
  parser.feed(stream);
  Frame f;
  ASSERT_EQ(parser.next(f), FrameParser::Status::kFrame);
  EXPECT_EQ(f.body, body);
  // The garbage tail is an invalid next frame: either a bogus length or a
  // crc mismatch, both fatal.
  EXPECT_EQ(parser.next(f), FrameParser::Status::kError);
}

TEST(FrameCodec, RvalueFeedAdoptsWhenEmptyAndAppendsBehindPartial) {
  const auto b1 = some_body(40, 21);
  const auto b2 = some_body(13, 22);
  const auto w1 = wire_of(FrameType::kUpload, b1);
  const auto w2 = wire_of(FrameType::kDispatch, b2);
  Frame f;

  // Nothing buffered: the vector becomes the buffer.
  FrameParser parser(1 << 20);
  auto whole = w1;
  parser.feed(std::move(whole));
  EXPECT_TRUE(whole.empty());  // moved into the parser, not copied
  EXPECT_EQ(parser.buffered_bytes(), w1.size());
  ASSERT_EQ(parser.next(f), FrameParser::Status::kFrame);
  EXPECT_EQ(f.body, b1);
  EXPECT_EQ(parser.buffered_bytes(), 0u);

  // A partial frame is buffered: the next piece lands behind it.
  const std::span<const std::uint8_t> first(w1);
  parser.feed(first.first(7));
  std::vector<std::uint8_t> rest(w1.begin() + 7, w1.end());
  rest.insert(rest.end(), w2.begin(), w2.end());
  parser.feed(std::move(rest));
  ASSERT_EQ(parser.next(f), FrameParser::Status::kFrame);
  EXPECT_EQ(f.body, b1);
  ASSERT_EQ(parser.next(f), FrameParser::Status::kFrame);
  EXPECT_EQ(f.type, FrameType::kDispatch);
  EXPECT_EQ(f.body, b2);
  EXPECT_EQ(parser.next(f), FrameParser::Status::kNeedMore);
}

TEST(FrameCodec, RvalueFeedIgnoredAfterStickyError) {
  FrameParser parser(1 << 20);
  auto bad = wire_of(FrameType::kFin, some_body(2, 23));
  bad[5] ^= 0xFF;
  parser.feed(std::move(bad));
  Frame f;
  ASSERT_EQ(parser.next(f), FrameParser::Status::kError);
  const std::string first_error = parser.error();
  parser.feed(wire_of(FrameType::kFin, some_body(2, 24)));
  EXPECT_EQ(parser.buffered_bytes(), 0u);
  EXPECT_EQ(parser.next(f), FrameParser::Status::kError);
  EXPECT_EQ(parser.error(), first_error);
}

TEST(FrameCodec, RvalueFeedMatchesSpanFeedAtEverySplit) {
  // The same three-frame stream, cut into three rvalue pieces at every
  // pair of offsets, must yield exactly the frames the span path yields.
  std::vector<std::uint8_t> stream;
  transport::append_frame(stream, FrameType::kUpload, some_body(11, 25));
  transport::append_frame(stream, FrameType::kFin, some_body(0, 26));
  transport::append_frame(stream, FrameType::kDispatch, some_body(19, 27));
  const auto drain = [](FrameParser& parser) {
    std::vector<Frame> frames;
    Frame f;
    while (parser.next(f) == FrameParser::Status::kFrame) frames.push_back(f);
    return frames;
  };
  FrameParser reference(1 << 20);
  reference.feed(std::span<const std::uint8_t>(stream));
  const auto want = drain(reference);
  ASSERT_EQ(want.size(), 3u);
  const auto piece = [&](std::size_t from, std::size_t to) {
    return std::vector<std::uint8_t>(stream.begin() + from,
                                     stream.begin() + to);
  };
  for (std::size_t a = 0; a <= stream.size(); ++a) {
    for (std::size_t b = a; b <= stream.size(); ++b) {
      FrameParser parser(1 << 20);
      // Frames are pulled between feeds too, so adoption happens both
      // into an empty parser and behind a partially consumed buffer.
      parser.feed(piece(0, a));
      auto got = drain(parser);
      parser.feed(piece(a, b));
      for (auto& f : drain(parser)) got.push_back(std::move(f));
      parser.feed(piece(b, stream.size()));
      for (auto& f : drain(parser)) got.push_back(std::move(f));
      ASSERT_EQ(got.size(), want.size()) << a << "," << b;
      for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i].type, want[i].type) << a << "," << b;
        EXPECT_EQ(got[i].body, want[i].body) << a << "," << b;
      }
      EXPECT_EQ(parser.buffered_bytes(), 0u);
    }
  }
}

// Delivers `bytes` through the parser's direct-read API, as the TCP backends
// receive: each read lands in prepare()'s room and is at most `read` bytes.
void receive_into(FrameParser& parser, std::span<const std::uint8_t> bytes,
                  std::size_t read = SIZE_MAX) {
  while (!bytes.empty()) {
    const std::span<std::uint8_t> room = parser.prepare();
    ASSERT_FALSE(room.empty());
    const std::size_t n = std::min({room.size(), read, bytes.size()});
    std::memcpy(room.data(), bytes.data(), n);
    parser.commit(n);
    bytes = bytes.subspan(n);
  }
}

TEST(FrameCodec, DirectReadMatchesSpanFeedAtEverySplit) {
  // The stream above, received into prepare()'s room in three arrivals cut
  // at every pair of offsets, and whole in reads of 1 and 7 bytes, must
  // yield exactly the frames feed(span) yields.
  std::vector<std::uint8_t> stream;
  transport::append_frame(stream, FrameType::kUpload, some_body(11, 25));
  transport::append_frame(stream, FrameType::kFin, some_body(0, 26));
  transport::append_frame(stream, FrameType::kDispatch, some_body(19, 27));
  const auto drain = [](FrameParser& parser) {
    std::vector<Frame> frames;
    Frame f;
    while (parser.next(f) == FrameParser::Status::kFrame) frames.push_back(f);
    return frames;
  };
  FrameParser reference(1 << 20);
  reference.feed(std::span<const std::uint8_t>(stream));
  const auto want = drain(reference);
  ASSERT_EQ(want.size(), 3u);
  const auto expect_frames = [&want](const std::vector<Frame>& got,
                                     const std::string& where) {
    ASSERT_EQ(got.size(), want.size()) << where;
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].type, want[i].type) << where;
      EXPECT_EQ(got[i].body, want[i].body) << where;
    }
  };
  const std::span<const std::uint8_t> all(stream);
  for (std::size_t a = 0; a <= stream.size(); ++a) {
    for (std::size_t b = a; b <= stream.size(); ++b) {
      FrameParser parser(1 << 20);
      receive_into(parser, all.subspan(0, a));
      auto got = drain(parser);
      receive_into(parser, all.subspan(a, b - a));
      for (auto& f : drain(parser)) got.push_back(std::move(f));
      receive_into(parser, all.subspan(b));
      for (auto& f : drain(parser)) got.push_back(std::move(f));
      expect_frames(got, std::to_string(a) + "," + std::to_string(b));
      EXPECT_EQ(parser.buffered_bytes(), 0u);
      EXPECT_EQ(parser.buffer_capacity(), 0u);
    }
  }
  for (const std::size_t read : {std::size_t{1}, std::size_t{7}}) {
    FrameParser parser(1 << 20);
    std::vector<Frame> got;
    for (std::size_t at = 0; at < stream.size(); at += read) {
      receive_into(parser, all.subspan(at, std::min(read, stream.size() - at)));
      for (auto& f : drain(parser)) got.push_back(std::move(f));
    }
    expect_frames(got, "reads of " + std::to_string(read));
  }
}

TEST(FrameCodec, DirectReadLandsInTheBodysStorage) {
  // The first read fills a read-sized room; once the length is known the
  // room is exactly the frame's rest, and the body is read where the
  // bytes were received, not from a copy.
  const auto body = some_body(100000, 46);
  const auto wire = wire_of(FrameType::kUpload, body);
  FrameParser parser(1 << 20);
  auto room = parser.prepare();
  ASSERT_LT(room.size(), wire.size());
  const std::size_t first = room.size();
  std::memcpy(room.data(), wire.data(), first);
  parser.commit(first);
  Frame f;
  ASSERT_EQ(parser.next(f), FrameParser::Status::kNeedMore);
  room = parser.prepare();
  ASSERT_EQ(room.size(), wire.size() - first);
  EXPECT_EQ(parser.buffer_capacity(), wire.size());
  std::memcpy(room.data(), wire.data() + first, room.size());
  parser.commit(room.size());
  ASSERT_EQ(parser.next(f), FrameParser::Status::kFrame);
  EXPECT_EQ(f.body, body);
  EXPECT_EQ(f.body.data() + (first - 5), room.data());
  EXPECT_EQ(parser.buffer_capacity(), 0u);
}

// --- one copy per frame: head/tail framing and the parser's move path ------

// The frame layout written out by hand — [u32 len][u8 type][body][u32 crc],
// the CRC one pass over type||body — so the envelope and the CRC combine
// are checked against something that uses neither.
std::vector<std::uint8_t> reference_frame(FrameType type,
                                          std::span<const std::uint8_t> body) {
  std::vector<std::uint8_t> out(transport::frame_wire_size(body.size()));
  const auto put_u32 = [&out](std::size_t at, std::uint32_t v) {
    for (std::size_t i = 0; i < 4; ++i) {
      out[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
  };
  put_u32(0, static_cast<std::uint32_t>(1 + body.size() + 4));
  out[4] = static_cast<std::uint8_t>(type);
  std::copy(body.begin(), body.end(), out.begin() + 5);
  put_u32(5 + body.size(),
          wire::crc32c(std::span<const std::uint8_t>(out).subspan(
              4, 1 + body.size())));
  return out;
}

bool same_bytes(std::span<const std::uint8_t> a,
                std::span<const std::uint8_t> b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size()) == 0);
}

// Broadcast sizes around the CRC's 3 x 256 B and 3 x 8192 B merge blocks,
// two long blocks, and the MNIST MLP's broadcast (101,770 floats).
const std::size_t kBroadcastSizes[] = {
    0,     1,     767,   768,   769,
    24575, 24576, 24577, 49152,
    static_cast<std::size_t>(wire::dense_f32_bytes(101770))};

transport::DispatchMsg dispatch_fields(std::size_t n) {
  return {.dispatch_index = 1000 + n,
          .round = 7,
          .slot = 3,
          .model_version = 6,
          .rng_stream = 0x10000 + n,
          .broadcast = {}};
}

std::vector<std::uint8_t> joined(std::span<const std::uint8_t> head,
                                 std::span<const std::uint8_t> tail) {
  std::vector<std::uint8_t> body(head.begin(), head.end());
  body.insert(body.end(), tail.begin(), tail.end());
  return body;
}

TEST(FrameCodec, HeadTailFramingMatchesReferenceBytes) {
  for (const std::size_t n : kBroadcastSizes) {
    const auto tail = some_body(n, 40 + n);
    const auto head = transport::encode_dispatch_head(dispatch_fields(n), n);
    const auto want = reference_frame(FrameType::kDispatch, joined(head, tail));

    std::vector<std::uint8_t> got;
    transport::append_frame(got, FrameType::kDispatch, head, tail,
                            wire::crc32c(tail));
    EXPECT_TRUE(same_bytes(got, want)) << n;
    std::vector<std::uint8_t> one_piece;
    transport::append_frame(one_piece, FrameType::kDispatch, joined(head, tail));
    EXPECT_TRUE(same_bytes(one_piece, want)) << n;

    const auto env = transport::frame_envelope(FrameType::kDispatch, head, n,
                                               wire::crc32c(tail));
    EXPECT_TRUE(same_bytes(env.header, std::span(want).first(5))) << n;
    EXPECT_TRUE(same_bytes(env.trailer, std::span(want).last(4))) << n;
  }
}

// --- send queue -------------------------------------------------------------

TEST(SendQueue, GatherAndConsumeResumeAtEveryByte) {
  // Frames with and without a tail, an empty body and an empty head, written
  // out the way flush() does it, `step` bytes per write and at most
  // `iov_cap` iovecs per gather: every write stops somewhere new, inside a
  // prefix, a tail or a trailer.
  const auto ack = transport::encode(transport::UploadAckMsg{3});
  const wire::SharedBytes tail = some_body(100, 30);
  const wire::SharedBytes small = some_body(5, 31);
  const auto head = transport::encode_dispatch_head(dispatch_fields(100), 100);
  std::vector<std::uint8_t> want;
  for (const auto& frame :
       {reference_frame(FrameType::kUploadAck, ack),
        reference_frame(FrameType::kDispatch, joined(head, tail)),
        reference_frame(FrameType::kFin, {}),
        reference_frame(FrameType::kDispatch, small)}) {
    want.insert(want.end(), frame.begin(), frame.end());
  }
  for (const std::size_t step : {1, 2, 3, 5, 7, 64, 1000}) {
    for (const std::size_t iov_cap : {1, 2, 64}) {
      transport::SendQueue q;
      q.push(FrameType::kUploadAck, ack, {}, 0);
      q.push(FrameType::kDispatch, head, tail, wire::crc32c(tail));
      q.push(FrameType::kFin, {}, {}, 0);
      q.push(FrameType::kDispatch, {}, small, wire::crc32c(small));
      ASSERT_EQ(q.bytes(), want.size());
      std::vector<std::uint8_t> got;
      std::vector<iovec> iov(iov_cap);
      while (q.bytes() != 0) {
        const std::size_t used = q.gather(iov);
        ASSERT_GT(used, 0u);
        std::size_t wrote = 0;
        for (std::size_t i = 0; i < used && wrote < step; ++i) {
          const auto* base = static_cast<const std::uint8_t*>(iov[i].iov_base);
          const std::size_t n = std::min(iov[i].iov_len, step - wrote);
          got.insert(got.end(), base, base + n);
          wrote += n;
        }
        q.consume(wrote);
        ASSERT_EQ(q.bytes(), want.size() - got.size())
            << step << "," << iov_cap;
      }
      EXPECT_EQ(got, want) << step << "," << iov_cap;
    }
  }
}

TEST(FrameCodec, ParserReleasesFinishedFrameStorage) {
  // A parser must not keep the largest frame it ever buffered, or every
  // session holds its biggest upload and Dispatch for its whole life.
  const auto big = some_body(1 << 20, 30);
  const auto small = some_body(16, 31);
  const auto big_wire = wire_of(FrameType::kDispatch, big);
  const auto small_wire = wire_of(FrameType::kUploadAck, small);
  Frame f;

  // Fed in receive-sized chunks; the frame leaves at the buffer's front.
  FrameParser chunked(2 << 20);
  for (std::size_t at = 0; at < big_wire.size(); at += 65536) {
    chunked.feed(std::span(big_wire).subspan(
        at, std::min<std::size_t>(65536, big_wire.size() - at)));
    if (at + 65536 < big_wire.size()) {
      ASSERT_EQ(chunked.next(f), FrameParser::Status::kNeedMore);
    }
  }
  ASSERT_EQ(chunked.next(f), FrameParser::Status::kFrame);
  EXPECT_EQ(f.body, big);
  EXPECT_EQ(chunked.next(f), FrameParser::Status::kNeedMore);
  EXPECT_EQ(chunked.buffer_capacity(), 0u);

  // Behind a smaller frame, in one feed: both bodies are copied out, and
  // the copy path must release the buffer too.
  std::vector<std::uint8_t> stream = small_wire;
  stream.insert(stream.end(), big_wire.begin(), big_wire.end());
  FrameParser copied(2 << 20);
  copied.feed(stream);
  ASSERT_EQ(copied.next(f), FrameParser::Status::kFrame);
  EXPECT_EQ(f.body, small);
  ASSERT_EQ(copied.next(f), FrameParser::Status::kFrame);
  EXPECT_EQ(f.body, big);
  EXPECT_EQ(copied.next(f), FrameParser::Status::kNeedMore);
  EXPECT_EQ(copied.buffer_capacity(), 0u);

  // With part of a next frame buffered, the storage shrinks to that frame.
  stream.insert(stream.end(), small_wire.begin(), small_wire.begin() + 10);
  FrameParser pending(2 << 20);
  pending.feed(stream);
  ASSERT_EQ(pending.next(f), FrameParser::Status::kFrame);
  ASSERT_EQ(pending.next(f), FrameParser::Status::kFrame);
  EXPECT_EQ(pending.next(f), FrameParser::Status::kNeedMore);
  EXPECT_EQ(pending.buffered_bytes(), 10u);
  EXPECT_LE(pending.buffer_capacity(), small_wire.size());
  pending.feed(std::span(small_wire).subspan(10));
  ASSERT_EQ(pending.next(f), FrameParser::Status::kFrame);
  EXPECT_EQ(f.body, small);
  EXPECT_EQ(pending.buffer_capacity(), 0u);
}

TEST(FrameCodec, FrameThenPartialNextInOneFeed) {
  const auto b1 = some_body(5000, 32);
  const auto b2 = some_body(3000, 33);
  const auto w1 = wire_of(FrameType::kDispatch, b1);
  const auto w2 = wire_of(FrameType::kUpload, b2);
  for (const std::size_t part : {std::size_t{1}, std::size_t{4},
                                 std::size_t{100}, w2.size() - 1}) {
    std::vector<std::uint8_t> first = w1;
    first.insert(first.end(), w2.begin(),
                 w2.begin() + static_cast<std::ptrdiff_t>(part));
    for (const bool rvalue : {false, true}) {
      FrameParser parser(1 << 20);
      if (rvalue) {
        parser.feed(std::vector<std::uint8_t>(first));
      } else {
        parser.feed(first);
      }
      Frame f;
      ASSERT_EQ(parser.next(f), FrameParser::Status::kFrame) << part;
      EXPECT_EQ(f.type, FrameType::kDispatch);
      EXPECT_EQ(f.body, b1) << part;
      EXPECT_EQ(parser.buffered_bytes(), part);
      ASSERT_EQ(parser.next(f), FrameParser::Status::kNeedMore) << part;
      parser.feed(std::span(w2).subspan(part));
      ASSERT_EQ(parser.next(f), FrameParser::Status::kFrame) << part;
      EXPECT_EQ(f.type, FrameType::kUpload);
      EXPECT_EQ(f.body, b2) << part;
      EXPECT_EQ(parser.next(f), FrameParser::Status::kNeedMore);
      EXPECT_EQ(parser.buffered_bytes(), 0u);
    }
  }
}

TEST(FrameCodec, LargeFramesByteAtATime) {
  const auto b1 = some_body(3000, 34);
  const auto b2 = some_body(0, 35);
  const auto b3 = some_body(2000, 36);
  std::vector<std::uint8_t> stream;
  transport::append_frame(stream, FrameType::kDispatch, b1);
  transport::append_frame(stream, FrameType::kFin, b2);
  transport::append_frame(stream, FrameType::kUpload, b3);
  FrameParser parser(1 << 20);
  std::vector<Frame> got;
  Frame f;
  for (const std::uint8_t byte : stream) {
    parser.feed({&byte, 1});
    while (parser.next(f) == FrameParser::Status::kFrame) got.push_back(f);
  }
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0].body, b1);
  EXPECT_EQ(got[1].type, FrameType::kFin);
  EXPECT_TRUE(got[1].body.empty());
  EXPECT_EQ(got[2].body, b3);
  EXPECT_EQ(parser.buffer_capacity(), 0u);
}

TEST(FrameCodec, ThreeFramesInOneFeed) {
  // Every order of large and small bodies, so the first frame takes the
  // move path or the copy path and later ones start mid-buffer or, after a
  // move, at the front of the fresh buffer.
  const std::size_t kSizes[][3] = {{4000, 10, 10},  {10, 4000, 10},
                                   {10, 10, 4000},  {4000, 4000, 4000},
                                   {4000, 3000, 0}, {0, 0, 0}};
  for (const auto& sizes : kSizes) {
    std::vector<std::vector<std::uint8_t>> bodies;
    std::vector<std::uint8_t> stream;
    for (std::size_t i = 0; i < 3; ++i) {
      bodies.push_back(some_body(sizes[i], 37 + i));
      transport::append_frame(stream, FrameType::kUpload, bodies.back());
    }
    for (const bool rvalue : {false, true}) {
      FrameParser parser(1 << 20);
      if (rvalue) {
        parser.feed(std::vector<std::uint8_t>(stream));
      } else {
        parser.feed(stream);
      }
      Frame f;
      for (std::size_t i = 0; i < 3; ++i) {
        ASSERT_EQ(parser.next(f), FrameParser::Status::kFrame)
            << sizes[0] << "," << sizes[1] << "," << sizes[2];
        EXPECT_EQ(f.body, bodies[i]) << i;
      }
      EXPECT_EQ(parser.next(f), FrameParser::Status::kNeedMore);
      EXPECT_EQ(parser.buffered_bytes(), 0u);
      EXPECT_EQ(parser.buffer_capacity(), 0u);
    }
  }
}

TEST(FrameCodec, FrameExactlyAtMaxFrameBytes) {
  constexpr std::size_t kLimit = 4096;
  const auto fits = some_body(kLimit - transport::kFrameOverheadBytes, 40);
  const auto over = some_body(kLimit - transport::kFrameOverheadBytes + 1, 41);
  for (const bool rvalue : {false, true}) {
    FrameParser parser(kLimit);
    const auto wire = wire_of(FrameType::kDispatch, fits);
    ASSERT_EQ(wire.size(), kLimit);
    if (rvalue) {
      parser.feed(std::vector<std::uint8_t>(wire));
    } else {
      parser.feed(wire);
    }
    Frame f;
    ASSERT_EQ(parser.next(f), FrameParser::Status::kFrame);
    EXPECT_EQ(f.body, fits);
    parser.feed(wire_of(FrameType::kDispatch, over));
    EXPECT_EQ(parser.next(f), FrameParser::Status::kError);
    EXPECT_NE(parser.error().find("exceeds"), std::string::npos);
  }
}

TEST(FrameCodec, BodyOutlivesLaterFeedsAndTheParser) {
  // Bodies own their bytes: one taken over from the parser's buffer (the
  // move path) and one copied out must both read intact after the parser
  // was fed again and destroyed. Under ASan a dangling view fails here.
  const auto b1 = some_body(6000, 42);
  const auto b2 = some_body(12, 43);
  const auto b3 = some_body(900, 44);
  std::vector<std::uint8_t> stream = wire_of(FrameType::kDispatch, b1);
  const auto w2 = wire_of(FrameType::kUploadAck, b2);
  stream.insert(stream.end(), w2.begin(), w2.end());
  stream.insert(stream.end(), w2.begin(), w2.end());
  const auto w3 = wire_of(FrameType::kUpload, b3);

  Frame moved;
  Frame copied;
  {
    auto parser = std::make_unique<FrameParser>(1 << 20);
    parser->feed(std::move(stream));
    ASSERT_EQ(parser->next(moved), FrameParser::Status::kFrame);
    ASSERT_EQ(parser->next(copied), FrameParser::Status::kFrame);
    parser->feed(w3);
    Frame scratch;
    ASSERT_EQ(parser->next(scratch), FrameParser::Status::kFrame);
    ASSERT_EQ(parser->next(scratch), FrameParser::Status::kFrame);
    EXPECT_EQ(scratch.body, b3);
    parser->feed(some_body(64, 45));  // garbage poisons and frees the buffer
    EXPECT_EQ(parser->next(scratch), FrameParser::Status::kError);
  }
  EXPECT_EQ(moved.body, b1);
  EXPECT_EQ(copied.body, b2);
  const Frame kept = copied;  // copies own their bytes too
  copied = Frame{};
  EXPECT_EQ(kept.body, b2);
}

// --- scheduler adapter + deadline timers ----------------------------------

TEST(Scheduler, NextTimeSkipsCancelledAndAdvanceToFiresInOrder) {
  fl::EventScheduler sched;
  std::vector<int> fired;
  const auto a = sched.schedule_at(1.0, [&] { fired.push_back(1); });
  sched.schedule_at(2.0, [&] { fired.push_back(2); });
  sched.schedule_at(3.0, [&] { fired.push_back(3); });
  EXPECT_EQ(sched.next_time(), 1.0);
  sched.cancel(a);
  EXPECT_EQ(sched.next_time(), 2.0);  // cancelled top lazily dropped
  sched.advance_to(2.5);
  EXPECT_EQ(sched.now(), 2.5);
  EXPECT_EQ(fired, std::vector<int>({2}));
  sched.advance_to(3.0);  // boundary inclusive
  EXPECT_EQ(fired, std::vector<int>({2, 3}));
  EXPECT_EQ(sched.next_time(), std::numeric_limits<double>::infinity());
  EXPECT_THROW(sched.advance_to(2.0), CheckError);  // time cannot go back
}

TEST(DeadlineTimer, ArmRearmsAndCancelSuppresses) {
  fl::EventScheduler sched;
  int fired = 0;
  transport::DeadlineTimer timer(sched, 5.0);
  timer.arm([&] { ++fired; });
  timer.arm([&] { ++fired; });  // re-arm replaces, never stacks
  EXPECT_TRUE(timer.armed());
  sched.advance_to(10.0);
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(timer.armed());
  timer.arm([&] { ++fired; });
  timer.cancel();
  sched.advance_to(20.0);
  EXPECT_EQ(fired, 1);
}

// --- protocol codecs ------------------------------------------------------

TEST(Protocol, RoundTripsEveryMessage) {
  transport::HelloMsg hello{.client_id = 3,
                            .session_token = 0xDEADBEEF,
                            .payload_kind = 2,
                            .payload_aux = 9};
  const auto h = transport::decode_hello(transport::encode(hello));
  EXPECT_EQ(h.client_id, 3u);
  EXPECT_EQ(h.session_token, 0xDEADBEEFu);
  EXPECT_EQ(h.payload_kind, 2u);
  EXPECT_EQ(h.payload_aux, 9u);

  transport::DispatchMsg dispatch{.dispatch_index = 41,
                                  .round = 7,
                                  .slot = 2,
                                  .model_version = 6,
                                  .rng_stream = 0x10029,
                                  .broadcast = some_body(100, 10)};
  const auto d = transport::decode_dispatch(transport::encode(dispatch));
  EXPECT_EQ(d.dispatch_index, 41u);
  EXPECT_EQ(d.rng_stream, 0x10029u);
  EXPECT_EQ(d.broadcast, dispatch.broadcast);

  transport::UploadMsg upload{.dispatch_index = 41,
                              .samples = 17,
                              .is_update = 1,
                              .train_seconds = 0.25,
                              .mean_loss = 1.5,
                              .last_loss = 1.25,
                              .payload = some_body(57, 11)};
  const auto u = transport::decode_upload(transport::encode(upload));
  EXPECT_EQ(u.samples, 17u);
  EXPECT_EQ(u.mean_loss, 1.5);
  EXPECT_EQ(u.payload, upload.payload);

  transport::RejectMsg reject{
      .dispatch_index = 41, .retry = 1, .reason = "crc mismatch"};
  const auto j = transport::decode_reject(transport::encode(reject));
  EXPECT_EQ(j.retry, 1u);
  EXPECT_EQ(j.reason, "crc mismatch");

  const auto w = transport::decode_welcome(
      transport::encode(transport::WelcomeMsg{.session_token = 5,
                                              .version = 2,
                                              .resumed = 1}));
  EXPECT_EQ(w.session_token, 5u);
  EXPECT_EQ(w.resumed, 1u);
  const auto a = transport::decode_upload_ack(
      transport::encode(transport::UploadAckMsg{.dispatch_index = 41}));
  EXPECT_EQ(a.dispatch_index, 41u);
  const auto f =
      transport::decode_fin(transport::encode(transport::FinMsg{.rounds = 9}));
  EXPECT_EQ(f.rounds, 9u);
}

TEST(Protocol, DispatchHeadThenBroadcastMatchesEncode) {
  transport::DispatchMsg with{.dispatch_index = 9,
                              .round = 3,
                              .slot = 1,
                              .model_version = 2,
                              .rng_stream = 0x10003,
                              .broadcast = {}};
  // Broadcast sizes on both sides of each varint length step.
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{127},
                              std::size_t{128}, std::size_t{300},
                              std::size_t{16383}, std::size_t{16384}}) {
    with.broadcast = some_body(n, 12 + n);
    transport::DispatchMsg header = with;
    // The head ignores m.broadcast, whatever it holds.
    header.broadcast = some_body(7, 13);
    auto joined = transport::encode_dispatch_head(header, n);
    joined.insert(joined.end(), with.broadcast.begin(), with.broadcast.end());
    EXPECT_EQ(joined, transport::encode(with)) << n;
    EXPECT_EQ(transport::decode_dispatch(std::move(joined)).broadcast,
              with.broadcast);
  }
}

TEST(Protocol, TruncationAtEveryLengthRejected) {
  transport::UploadMsg upload{.dispatch_index = 1,
                              .samples = 2,
                              .is_update = 0,
                              .train_seconds = 0.1,
                              .mean_loss = 2.0,
                              .last_loss = 1.9,
                              .payload = some_body(33, 12)};
  const auto full = transport::encode(upload);
  for (std::size_t n = 0; n < full.size(); ++n) {
    const std::span<const std::uint8_t> cut(full.data(), n);
    EXPECT_THROW(transport::decode_upload(
                     std::vector<std::uint8_t>(cut.begin(), cut.end())),
                 wire::DecodeError)
        << n;
  }
  EXPECT_NO_THROW(transport::decode_upload(std::vector<std::uint8_t>(full)));
  // Trailing junk is as fatal as truncation.
  auto padded = full;
  padded.push_back(0);
  EXPECT_THROW(transport::decode_upload(std::move(padded)), wire::DecodeError);
}

TEST(Protocol, LyingByteRunLengthRejected) {
  transport::DispatchMsg dispatch{.dispatch_index = 1,
                                  .round = 1,
                                  .slot = 0,
                                  .model_version = 0,
                                  .rng_stream = 1,
                                  .broadcast = some_body(20, 13)};
  auto bytes = transport::encode(dispatch);
  // The varint byte-run length sits right after five u64s; inflate it so
  // it claims more bytes than remain.
  bytes[40] = 0xFF;
  bytes[41] |= 0x01;
  EXPECT_THROW(transport::decode_dispatch(std::move(bytes)), wire::DecodeError);
}

// --- receive path: decoded byte runs slice the frame ----------------------

/// True when `inner`'s bytes lie inside `outer`'s.
bool within(std::span<const std::uint8_t> inner,
            std::span<const std::uint8_t> outer) {
  const std::less_equal<const std::uint8_t*> le;
  return le(outer.data(), inner.data()) &&
         le(inner.data() + inner.size(), outer.data() + outer.size());
}

TEST(ReceivePath, DecodedRunsSliceTheFrameAndOutliveIt) {
  const auto broadcast = some_body(5000, 50);
  const auto payload = some_body(3000, 51);
  transport::DispatchMsg dispatch = dispatch_fields(broadcast.size());
  dispatch.broadcast = std::vector<std::uint8_t>(broadcast);
  const transport::UploadMsg upload{
      .dispatch_index = 3,
      .samples = 9,
      .payload = std::vector<std::uint8_t>(payload)};
  std::vector<std::uint8_t> stream =
      wire_of(FrameType::kDispatch, transport::encode(dispatch));
  const auto second = wire_of(FrameType::kUpload, transport::encode(upload));
  stream.insert(stream.end(), second.begin(), second.end());
  // Received both ways the backends receive: reads into prepare()'s room
  // (TCP) and a delivered vector taken over whole (loopback).
  for (const bool delivered : {false, true}) {
    transport::DispatchMsg got_dispatch;
    transport::UploadMsg got_upload;
    {
      auto parser = std::make_unique<FrameParser>(1 << 20);
      if (delivered) {
        parser->feed(std::vector<std::uint8_t>(stream));
      } else {
        receive_into(*parser, stream, 1500);
      }
      auto frame = std::make_unique<Frame>();
      ASSERT_EQ(parser->next(*frame), FrameParser::Status::kFrame);
      got_dispatch = transport::decode_dispatch(frame->body);
      EXPECT_TRUE(within(got_dispatch.broadcast, frame->body)) << delivered;
      ASSERT_EQ(parser->next(*frame), FrameParser::Status::kFrame);
      got_upload = transport::decode_upload(frame->body);
      EXPECT_TRUE(within(got_upload.payload, frame->body)) << delivered;
    }
    // Frame and parser are gone; under ASan a dangling slice fails here.
    EXPECT_EQ(got_dispatch.broadcast, broadcast) << delivered;
    EXPECT_EQ(got_upload.payload, payload) << delivered;
  }
}

void expect_same_compact(const wire::CompactUpdate& a,
                         const wire::CompactUpdate& b) {
  EXPECT_EQ(a.form, b.form);
  EXPECT_EQ(a.coords, b.coords);
  EXPECT_TRUE(a.present == b.present);
  EXPECT_EQ(a.indices, b.indices);
  EXPECT_EQ(a.rank_directory, b.rank_directory);
  ASSERT_EQ(a.values.size(), b.values.size());
  EXPECT_TRUE(a.values.empty() ||
              std::memcmp(a.values.data(), b.values.data(),
                          a.values.size() * sizeof(float)) == 0);
}

// One unsealed payload of every PayloadKind over `store`'s layout, values
// drawn from `rng`; the kSubModel one is `plan`'s at width 0.5.
std::vector<wire::Payload> payload_of_every_kind(
    const nn::ParameterStore& store, const baselines::WidthPlan& plan,
    tensor::Rng& rng) {
  const std::size_t n = store.size();
  std::vector<float> values(n);
  for (auto& v : values) v = static_cast<float>(rng.normal());
  std::vector<std::uint32_t> indices;
  std::vector<float> picked;
  std::vector<std::uint8_t> negative;
  for (std::uint32_t i = 1; i < n; i += 3) {
    indices.push_back(i);
    picked.push_back(values[i]);
    negative.push_back(static_cast<std::uint8_t>(i % 2));
  }
  std::vector<std::uint8_t> rows(store.droppable_rows(), 1);
  rows[1] = 0;
  std::vector<std::int8_t> quants(n);
  for (std::size_t i = 0; i < n; ++i) {
    quants[i] = static_cast<std::int8_t>(static_cast<int>(i % 255) - 127);
  }
  std::vector<std::uint8_t> most(n, 1);  // encodes as kPrunedBitmap
  most[2] = 0;
  std::vector<std::uint8_t> one(n, 0);  // encodes as kPrunedVarint
  one[5] = 1;
  std::vector<wire::Payload> payloads;
  payloads.push_back(wire::encode_dense_f32(values));
  payloads.push_back(wire::encode_row_masked(store, rows, values));
  payloads.push_back(wire::encode_sparse_fixed(indices, picked, 32));
  payloads.push_back(wire::encode_sparse_varint(indices, picked));
  payloads.push_back(wire::encode_ternary(0.25F, indices, negative, 16));
  payloads.push_back(wire::encode_sign_mean(0.5F, {}, values));
  payloads.push_back(wire::encode_int8_dense(0.01F, quants, n));
  payloads.push_back(wire::encode_pruned(store, most, values));
  payloads.push_back(wire::encode_pruned(store, one, values));
  payloads.push_back(plan.encode_submodel(store, 0.5, values));
  std::set<wire::PayloadKind> kinds;
  for (const auto& p : payloads) kinds.insert(p.kind);
  EXPECT_EQ(kinds.size(), 10u) << "every PayloadKind once";
  return payloads;
}

TEST(ReceivePath, EveryPayloadKindDecodesFromAnOddOffsetInTheFrame) {
  nn::MlpModel model({.input = 20, .hidden = 6, .classes = 3});
  tensor::Rng rng(52);
  model.init_params(rng);
  const nn::ParameterStore& store = model.store();
  const baselines::FedAvgStrategy generic;
  const auto plan = baselines::WidthPlan::for_mlp(model);
  const auto heterofl = baselines::HeteroFlStrategy::fjord(plan, 0.5);

  for (wire::Payload& payload : payload_of_every_kind(store, plan, rng)) {
    SCOPED_TRACE(wire::to_string(payload.kind));
    const fl::Strategy* strategy =
        payload.kind == wire::PayloadKind::kSubModel
            ? static_cast<const fl::Strategy*>(&heterofl)
            : &generic;
    wire::seal_payload(payload);
    const transport::UploadMsg upload{.dispatch_index = 1,
                                      .payload = payload.bytes};
    const auto upload_wire =
        wire_of(FrameType::kUpload, transport::encode(upload));
    // A frame of `pad` body bytes ahead of the upload shifts its payload by
    // one byte: one of the two lands at an odd address.
    std::size_t odd = 0;
    for (const std::size_t pad : {std::size_t{0}, std::size_t{1}}) {
      std::vector<std::uint8_t> stream =
          wire_of(FrameType::kUploadAck, some_body(pad, 53));
      stream.insert(stream.end(), upload_wire.begin(), upload_wire.end());
      FrameParser parser(1 << 20);
      parser.feed(std::move(stream));
      Frame f;
      ASSERT_EQ(parser.next(f), FrameParser::Status::kFrame);
      ASSERT_EQ(parser.next(f), FrameParser::Status::kFrame);
      const transport::UploadMsg got = transport::decode_upload(f.body);
      ASSERT_TRUE(within(got.payload, f.body));
      if (reinterpret_cast<std::uintptr_t>(got.payload.data()) % 2 == 0) {
        continue;
      }
      ++odd;
      fl::ClientOutcome sliced;
      sliced.payload = {.kind = payload.kind,
                        .aux = payload.aux,
                        .bytes = got.payload};
      fl::ClientOutcome fresh;
      fresh.payload = {.kind = payload.kind,
                       .aux = payload.aux,
                       .bytes = std::vector<std::uint8_t>(
                           payload.bytes.begin(), payload.bytes.end())};
      const auto a = fl::try_decode_outcome_compact(*strategy, store, sliced,
                                                    /*framed=*/true, {});
      const auto b = fl::try_decode_outcome_compact(*strategy, store, fresh,
                                                    /*framed=*/true, {});
      ASSERT_TRUE(a.ok) << a.error;
      ASSERT_TRUE(b.ok) << b.error;
      expect_same_compact(sliced.compact, fresh.compact);
      EXPECT_EQ(sliced.uplink_bytes, fresh.uplink_bytes);
    }
    EXPECT_EQ(odd, 1u);
  }
}

TEST(Protocol, UploadHeadThenPayloadMatchesEncode) {
  // encode(m) == encode_upload_head(m, n) || payload for a sealed payload
  // of every kind and raw payloads on both sides of each varint length
  // step; ClientRuntime sends the two halves without joining them.
  nn::MlpModel model({.input = 20, .hidden = 6, .classes = 3});
  tensor::Rng rng(54);
  model.init_params(rng);
  std::vector<wire::SharedBytes> payloads;
  for (wire::Payload& p : payload_of_every_kind(
           model.store(), baselines::WidthPlan::for_mlp(model), rng)) {
    wire::seal_payload(p);
    payloads.push_back(std::move(p.bytes));
  }
  for (const std::size_t n : {0, 1, 127, 128, 16383, 16384}) {
    payloads.push_back(some_body(n, 55 + n));
  }
  std::uint64_t index = 0;
  for (const wire::SharedBytes& payload : payloads) {
    ++index;
    const auto x = static_cast<double>(index);
    const transport::UploadMsg m{
        .dispatch_index = index << 40,
        .samples = 600 + index,
        .is_update = static_cast<std::uint8_t>(index % 2),
        .train_seconds = 0.125 * x,
        .mean_loss = -1.0 / x,
        .last_loss = 2.5,
        .payload = payload};
    const auto want = transport::encode(m);
    // The head ignores m.payload; only its size argument counts.
    transport::UploadMsg other = m;
    other.payload = some_body(3, 56);
    EXPECT_EQ(joined(transport::encode_upload_head(other, payload.size()),
                     payload),
              want)
        << index;
    EXPECT_EQ(transport::decode_upload(std::vector<std::uint8_t>(want)).payload,
              payload);
  }
}

TEST(ReceivePath, TruncatedAndLyingBodiesThrowFromFrameStorage) {
  const transport::UploadMsg upload{.dispatch_index = 1,
                                    .samples = 2,
                                    .payload = some_body(33, 54)};
  transport::DispatchMsg dispatch = dispatch_fields(20);
  dispatch.broadcast = some_body(20, 55);
  // The byte-run length follows the Upload's 41 and the Dispatch's 40
  // bytes of fields.
  const struct {
    FrameType type;
    std::vector<std::uint8_t> body;
    std::size_t run_length_at;
  } kinds[] = {{FrameType::kUpload, transport::encode(upload), 41},
               {FrameType::kDispatch, transport::encode(dispatch), 40}};
  for (const auto& k : kinds) {
    const auto decode = [&k](const wire::SharedBytes& body) {
      if (k.type == FrameType::kUpload) {
        (void)transport::decode_upload(body);
      } else {
        (void)transport::decode_dispatch(body);
      }
    };
    FrameParser parser(1 << 20);
    receive_into(parser, wire_of(k.type, k.body));
    Frame f;
    ASSERT_EQ(parser.next(f), FrameParser::Status::kFrame);
    for (std::size_t n = 0; n < f.body.size(); ++n) {
      EXPECT_THROW(decode(f.body.slice(0, n)), wire::DecodeError)
          << to_string(k.type) << " cut to " << n;
    }
    EXPECT_NO_THROW(decode(f.body));
    // A run length claiming more bytes than remain: the frame checks out,
    // the decode must not.
    auto lying = k.body;
    lying[k.run_length_at] = 0xFF;
    lying[k.run_length_at + 1] |= 0x01;
    receive_into(parser, wire_of(k.type, lying));
    ASSERT_EQ(parser.next(f), FrameParser::Status::kFrame);
    EXPECT_THROW(decode(f.body), wire::DecodeError) << to_string(k.type);
  }
}

// --- loopback: runtimes, parity, chaos ------------------------------------

using ClientTweak =
    std::function<void(transport::TransportClientConfig&, std::size_t)>;

struct LoopbackRun {
  tools::DemoWorkload w;
  transport::LoopbackTransport net{transport::TransportLimits{}};
  std::unique_ptr<transport::ServerRuntime> server;
  std::vector<std::unique_ptr<transport::LoopbackTransport::Endpoint>> ends;
  std::vector<std::unique_ptr<transport::ClientRuntime>> clients;

  explicit LoopbackRun(const std::string& method,
                       transport::TransportServerConfig scfg = {},
                       std::size_t skip_client = SIZE_MAX,
                       const ClientTweak& tweak = {})
      : w(tools::make_demo_workload(method, /*smoke=*/true)) {
    scfg.base = w.sim;
    scfg.scenario_name = "loopback";
    server = std::make_unique<transport::ServerRuntime>(
        scfg, net, w.factory, w.test, w.partition,
        tools::make_demo_strategy(method));
    for (std::size_t c = 0; c < w.partition.size(); ++c) {
      if (w.partition[c].empty() || c == skip_client) continue;
      transport::TransportClientConfig ccfg;
      ccfg.client_id = c;
      ccfg.base = w.sim;
      ccfg.payload_kind = w.payload_kind;
      ccfg.reconnect_interval_seconds = 0.0;  // loopback dials instantly
      ccfg.reconnect_timeout_seconds = 60.0;
      if (tweak) tweak(ccfg, c);
      ends.push_back(std::make_unique<transport::LoopbackTransport::Endpoint>(
          net, c));
      clients.push_back(std::make_unique<transport::ClientRuntime>(
          ccfg, *ends.back(), w.factory, w.train, w.partition[c],
          tools::make_demo_strategy(method)));
    }
  }

  /// Drives everything to completion. advance_dt > 0 moves virtual time
  /// each iteration (deadline tests need it).
  transport::TransportServerResult drive(double advance_dt = 0.0,
                                         std::size_t max_iters = 10000) {
    server->start();
    for (auto& c : clients) c->start();
    std::size_t guard = 0;
    while (!server->done() && ++guard < max_iters) {
      net.step(0.0);
      for (auto& c : clients) c->pump(0.0);
      if (advance_dt > 0.0) net.advance_time(advance_dt);
    }
    EXPECT_LT(guard, max_iters) << "loopback run did not converge";
    return server->finish();
  }
};

void expect_conserved(const transport::TransportServerResult& r) {
  EXPECT_TRUE(r.conserved())
      << "dispatched=" << r.sim.total_dispatched
      << " committed=" << r.sim.total_committed
      << " abandoned=" << r.sim.total_abandoned
      << " rejected=" << r.sim.total_rejected
      << " buffered=" << r.sim.final_buffered
      << " in_flight=" << r.sim.final_in_flight;
}

TEST(LoopbackParity, FedAvgBitIdenticalToEngine) {
  const auto w = tools::make_demo_workload("fedavg", true);
  const std::string want =
      tools::trajectory_text(tools::reference_run(w, "fedavg"));
  LoopbackRun run("fedavg");
  const auto result = run.drive();
  expect_conserved(result);
  EXPECT_EQ(tools::trajectory_text(result.sim), want);
  EXPECT_EQ(result.sessions_opened, 8u);
  EXPECT_EQ(result.sessions_resumed, 0u);
  for (auto& c : run.clients) EXPECT_TRUE(c->finished());
}

TEST(LoopbackParity, FedBiadBitIdenticalToEngine) {
  const auto w = tools::make_demo_workload("fedbiad", true);
  const std::string want =
      tools::trajectory_text(tools::reference_run(w, "fedbiad"));
  LoopbackRun run("fedbiad");
  const auto result = run.drive();
  expect_conserved(result);
  EXPECT_EQ(tools::trajectory_text(result.sim), want);
}

TEST(LoopbackChaos, AbruptDisconnectResumesAndStaysBitIdentical) {
  // Client 2 kills its connection right after its first upload leaves the
  // socket — before any ack. It must reconnect, resume its session, re-send
  // from the outcome cache, and the server-side dedup/commit path must keep
  // the trajectory byte-identical to the undisturbed reference.
  const auto w = tools::make_demo_workload("fedbiad", true);
  const std::string want =
      tools::trajectory_text(tools::reference_run(w, "fedbiad"));
  LoopbackRun run("fedbiad", {}, SIZE_MAX,
                  [](transport::TransportClientConfig& cfg, std::size_t c) {
                    if (c == 2) cfg.drop_connection_after_uploads = 1;
                  });
  const auto result = run.drive();
  expect_conserved(result);
  EXPECT_EQ(tools::trajectory_text(result.sim), want);
  EXPECT_GE(result.sessions_resumed, 1u);
  for (std::size_t i = 0; i < run.clients.size(); ++i) {
    EXPECT_TRUE(run.clients[i]->finished()) << i;
    // Exactly-once training: resends come from the cache, so uploads can
    // exceed trainings but never the other way round.
    EXPECT_LE(run.clients[i]->trainings_run(), run.clients[i]->uploads_sent())
        << i;
  }
  EXPECT_GE(run.clients[2]->reconnects(), 1u);
}

// Losing a dispatch — to a terminal rejection or a deadline abandon — must
// not stall any aggregation mode: the barrier wave completes with the
// survivors, and the async modes draw a replacement for every lost dispatch.
// Client 1 is selected in every mode at seed 42 (Buffered-K runs with K=2).
class LoopbackLoss : public ::testing::TestWithParam<fl::AggregationMode> {
 protected:
  static constexpr std::size_t kLossy = 1;

  [[nodiscard]] static transport::TransportServerConfig config() {
    transport::TransportServerConfig scfg;
    scfg.mode = GetParam();
    scfg.buffer_size = 2;
    return scfg;
  }
};

TEST_P(LoopbackLoss, CorruptUploadsRetryThenTerminallyReject) {
  // The lossy client corrupts every upload attempt (p = 1): each delivery
  // burns one attempt, and after max_upload_attempts the dispatch is
  // terminally rejected — the run must still complete via the rejection
  // path and the conservation law must hold exactly.
  transport::TransportServerConfig scfg = config();
  scfg.max_upload_attempts = 2;
  LoopbackRun run("fedavg", scfg, SIZE_MAX,
                  [](transport::TransportClientConfig& cfg, std::size_t c) {
                    if (c == kLossy) cfg.corrupt_probability = 1.0;
                  });
  const auto result = run.drive();
  expect_conserved(result);
  // Every one of the lossy client's dispatches must terminally reject.
  EXPECT_GT(result.sim.total_rejected, 0u);
  EXPECT_GE(result.sim.total_rejected_deliveries,
            result.sim.total_rejected * 2);  // both attempts burned
  EXPECT_GT(result.sim.total_rejected_bytes, 0u);
  EXPECT_EQ(result.sim.total_committed + result.sim.total_rejected,
            result.sim.total_dispatched);
  EXPECT_EQ(result.sim.rounds.size(), run.w.sim.rounds);
}

TEST_P(LoopbackLoss, DeadClientAbandonedAtDispatchDeadline) {
  // The lossy client never connects. With a dispatch deadline configured its
  // dispatches are abandoned (the churn path), the run completes with the
  // survivors, and conservation charges the losses to `abandoned`.
  transport::TransportServerConfig scfg = config();
  scfg.dispatch_deadline_seconds = 5.0;
  LoopbackRun run("fedavg", scfg, /*skip_client=*/kLossy);
  const auto result = run.drive(/*advance_dt=*/1.0);
  expect_conserved(result);
  EXPECT_GT(result.sim.total_abandoned, 0u);
  EXPECT_EQ(result.sim.total_committed + result.sim.total_abandoned,
            result.sim.total_dispatched);
  EXPECT_EQ(result.sim.rounds.size(), run.w.sim.rounds);
  for (auto& c : run.clients) EXPECT_TRUE(c->finished());
}

INSTANTIATE_TEST_SUITE_P(AllModes, LoopbackLoss,
                         ::testing::Values(fl::AggregationMode::kBarrier,
                                           fl::AggregationMode::kFedAsync,
                                           fl::AggregationMode::kBufferedK),
                         [](const auto& info) {
                           return std::string(fl::to_string(info.param));
                         });

// A raw scripted peer for protocol-violation tests: records frames and
// closes, sends whatever the test scripts.
struct ScriptedPeer : transport::ClientTransport::Handler {
  transport::LoopbackTransport::Endpoint endpoint;
  std::vector<Frame> frames;
  std::vector<std::string> closes;
  explicit ScriptedPeer(transport::LoopbackTransport& net, std::uint64_t id)
      : endpoint(net, id) {
    endpoint.set_handler(this);
  }
  void on_frame(Frame&& f) override { frames.push_back(std::move(f)); }
  void on_close(const std::string& reason) override {
    closes.push_back(reason);
  }
  bool hello(std::uint64_t client, std::uint64_t token = 0) {
    return endpoint.send(
        FrameType::kHello,
        transport::encode(transport::HelloMsg{.client_id = client,
                                              .session_token = token,
                                              .payload_kind = 0,
                                              .payload_aux = 0}));
  }
};

TEST(LoopbackChaos, HandshakeReplayAndUnknownClientClose) {
  LoopbackRun run("fedavg");
  run.server->start();

  ScriptedPeer replayer(run.net, 100);
  ASSERT_TRUE(replayer.endpoint.connect());
  ASSERT_TRUE(replayer.hello(0));
  run.net.step(0.0);
  ASSERT_TRUE(replayer.endpoint.connected());
  ASSERT_TRUE(replayer.hello(0));  // second Hello on a bound session
  run.net.step(0.0);
  ASSERT_EQ(replayer.closes.size(), 1u);
  EXPECT_NE(replayer.closes[0].find("handshake replay"), std::string::npos);

  ScriptedPeer stranger(run.net, 101);
  ASSERT_TRUE(stranger.endpoint.connect());
  ASSERT_TRUE(stranger.hello(4242));  // not a populated client id
  run.net.step(0.0);
  ASSERT_EQ(stranger.closes.size(), 1u);
  EXPECT_NE(stranger.closes[0].find("unknown client"), std::string::npos);

  ScriptedPeer eager(run.net, 102);
  ASSERT_TRUE(eager.endpoint.connect());
  ASSERT_TRUE(eager.endpoint.send(
      FrameType::kUpload,
      transport::encode(transport::UploadMsg{.dispatch_index = 0})));
  run.net.step(0.0);
  ASSERT_EQ(eager.closes.size(), 1u);
  EXPECT_NE(eager.closes[0].find("handshake"), std::string::npos);

  ScriptedPeer garbled(run.net, 103);
  ASSERT_TRUE(garbled.endpoint.connect());
  ASSERT_TRUE(garbled.endpoint.send(FrameType::kHello, some_body(3, 14)));
  run.net.step(0.0);
  ASSERT_EQ(garbled.closes.size(), 1u);
  EXPECT_NE(garbled.closes[0].find("malformed hello"), std::string::npos);
}

TEST(LoopbackChaos, LateDispatchCarriesItsOwnModelVersion) {
  // Buffered-K (K=2): client 1 is dispatched at version 0 but connects only
  // after commits have moved the global on and later dispatches have gone
  // out. Its Dispatch must still carry the version-0 model it was made for.
  constexpr std::size_t kLate = 1;
  transport::TransportServerConfig scfg;
  scfg.mode = fl::AggregationMode::kBufferedK;
  scfg.buffer_size = 2;
  LoopbackRun run("fedavg", scfg, /*skip_client=*/kLate);
  run.server->start();
  for (auto& c : run.clients) c->start();
  for (int i = 0; i < 50 && run.server->rounds_completed() < 1; ++i) {
    run.net.step(0.0);
    for (auto& c : run.clients) c->pump(0.0);
  }
  ASSERT_GE(run.server->rounds_completed(), 1u);

  ScriptedPeer late(run.net, kLate);
  ASSERT_TRUE(late.endpoint.connect());
  ASSERT_TRUE(late.hello(kLate));
  run.net.step(0.0);
  auto model = run.w.factory();
  tensor::Rng init_rng = tensor::Rng(run.w.sim.seed).split(0xF0F0);
  model->init_params(init_rng);
  const wire::Payload version0 =
      wire::encode_dense_f32(model->store().params());
  std::size_t dispatches = 0;
  for (const Frame& f : late.frames) {
    if (f.type != FrameType::kDispatch) continue;
    const transport::DispatchMsg msg = transport::decode_dispatch(f.body);
    EXPECT_EQ(msg.model_version, 0u);
    EXPECT_TRUE(msg.broadcast == version0.bytes)
        << "the late Dispatch carried another version's model";
    ++dispatches;
  }
  EXPECT_EQ(dispatches, 1u);
}

TEST(LoopbackChaos, SlowlorisReadDeadlineEvicts) {
  LoopbackRun run("fedavg");
  run.server->start();
  ScriptedPeer silent(run.net, 104);
  ASSERT_TRUE(silent.endpoint.connect());  // connects, never says Hello
  run.net.step(0.0);
  run.net.advance_time(transport::TransportLimits{}.read_deadline_seconds +
                       1.0);
  ASSERT_EQ(silent.closes.size(), 1u);
  EXPECT_NE(silent.closes[0].find("read deadline exceeded"),
            std::string::npos);
}

TEST(LoopbackChaos, BackpressureRefusesParksAndDrains) {
  // Transport-level backpressure: shrink one session's send ring so a
  // server send refuses, then watch on_drain fire once the stalled reader
  // resumes. Uses a scripted handler on the server side.
  struct RecordingHandler : transport::ServerTransport::Handler {
    std::vector<SessionId> opened, drained;
    std::vector<std::pair<SessionId, std::string>> closed;
    void on_open(SessionId s) override { opened.push_back(s); }
    void on_frame(SessionId, Frame&&) override {}
    void on_close(SessionId s, const std::string& r) override {
      closed.emplace_back(s, r);
    }
    void on_drain(SessionId s) override { drained.push_back(s); }
  };
  // Short write deadline so the eviction half below can advance past it
  // without also tripping the (longer) read deadline.
  transport::TransportLimits limits;
  limits.write_deadline_seconds = 5.0;
  transport::LoopbackTransport net{limits};
  RecordingHandler handler;
  net.set_handler(&handler);
  ScriptedPeer peer(net, 105);
  ASSERT_TRUE(peer.endpoint.connect());
  ASSERT_EQ(handler.opened.size(), 1u);
  const SessionId session = handler.opened[0];

  peer.endpoint.pause();  // stalled reader: ring can only fill
  const auto body = some_body(100, 15);
  const std::size_t wire = transport::frame_wire_size(body.size());
  net.set_session_send_capacity(session, 2 * wire);
  ASSERT_TRUE(net.send(session, FrameType::kDispatch, body));
  ASSERT_TRUE(net.send(session, FrameType::kDispatch, body));
  EXPECT_FALSE(net.send(session, FrameType::kDispatch, body));  // full
  EXPECT_EQ(net.send_space(session), 0u);
  EXPECT_TRUE(handler.drained.empty());

  peer.endpoint.unpause();  // reader resumes; ring drains fully
  net.step(0.0);
  ASSERT_EQ(handler.drained.size(), 1u);
  EXPECT_EQ(handler.drained[0], session);
  EXPECT_EQ(peer.frames.size(), 2u);
  ASSERT_TRUE(net.send(session, FrameType::kDispatch, body));  // usable again

  // And the eviction half: refuse again, never drain, advance past the
  // write deadline.
  peer.endpoint.pause();
  ASSERT_TRUE(net.send(session, FrameType::kDispatch, body));
  EXPECT_FALSE(net.send(session, FrameType::kDispatch, body));
  net.advance_time(limits.write_deadline_seconds + 1.0);
  ASSERT_EQ(handler.closed.size(), 1u);
  EXPECT_NE(handler.closed[0].second.find("write deadline exceeded"),
            std::string::npos);
}

struct OpenRecorder : transport::ServerTransport::Handler {
  std::vector<SessionId> opened, drained;
  std::vector<std::pair<SessionId, std::string>> closed;
  void on_open(SessionId s) override { opened.push_back(s); }
  void on_frame(SessionId, Frame&&) override {}
  void on_close(SessionId s, const std::string& r) override {
    closed.emplace_back(s, r);
  }
  void on_drain(SessionId s) override { drained.push_back(s); }
};

TEST(LoopbackTransport, HeadTailSendDeliversReferenceFrames) {
  // Each Delivery is one frame. Its size shows in the ring budget, and the
  // receiving parser accepts it only if len, type and the CRC over
  // type||body hold; a frame of that size, type and body is exactly one
  // byte string, the reference.
  transport::LoopbackTransport net{transport::TransportLimits{}};
  OpenRecorder handler;
  net.set_handler(&handler);
  ScriptedPeer peer(net, 106);
  ASSERT_TRUE(peer.endpoint.connect());
  ASSERT_EQ(handler.opened.size(), 1u);
  const SessionId session = handler.opened[0];
  transport::ServerTransport& base = net;
  for (const std::size_t n : kBroadcastSizes) {
    const wire::SharedBytes tail = some_body(n, 50 + n);
    const auto head = transport::encode_dispatch_head(dispatch_fields(n), n);
    const auto want = reference_frame(FrameType::kDispatch, joined(head, tail));
    peer.frames.clear();
    peer.endpoint.pause();
    const std::size_t space = net.send_space(session);
    ASSERT_TRUE(base.send(session, FrameType::kDispatch, head, tail,
                          wire::crc32c(tail)));
    EXPECT_EQ(space - net.send_space(session), want.size()) << n;
    peer.endpoint.unpause();
    ASSERT_EQ(peer.frames.size(), 1u) << n;
    EXPECT_EQ(peer.frames[0].type, FrameType::kDispatch);
    EXPECT_TRUE(same_bytes(
        reference_frame(FrameType::kDispatch, peer.frames[0].body), want))
        << n;
    EXPECT_EQ(transport::decode_dispatch(peer.frames[0].body).broadcast, tail);
  }
  // The head/tail send shares the budget and refusal path of send(body).
  const wire::SharedBytes tail = some_body(1000, 60);
  const auto head = transport::encode_dispatch_head(dispatch_fields(1), 1000);
  net.set_session_send_capacity(
      session, transport::frame_wire_size(head.size() + tail.size()));
  peer.endpoint.pause();
  ASSERT_TRUE(base.send(session, FrameType::kDispatch, head, tail,
                        wire::crc32c(tail)));
  EXPECT_FALSE(base.send(session, FrameType::kDispatch, head, tail,
                         wire::crc32c(tail)));
  EXPECT_EQ(net.send_space(session), 0u);
  EXPECT_TRUE(handler.closed.empty());
}

TEST(LoopbackTransport, DefaultHeadTailSendJoinsForForwardingDecorators) {
  // A decorator that forwards only send(body) — like a tracing wrapper —
  // inherits the default head/tail send, which joins the two and calls it.
  struct Forwarding final : transport::ServerTransport {
    explicit Forwarding(transport::ServerTransport& inner) : inner(inner) {}
    transport::ServerTransport& inner;
    std::vector<std::vector<std::uint8_t>> bodies;
    void set_handler(Handler* h) override { inner.set_handler(h); }
    void set_tick_hook(std::function<bool()> hook) override {
      inner.set_tick_hook(std::move(hook));
    }
    bool send(SessionId session, FrameType type,
              std::span<const std::uint8_t> body) override {
      bodies.emplace_back(body.begin(), body.end());
      return inner.send(session, type, body);
    }
    std::size_t send_space(SessionId session) const override {
      return inner.send_space(session);
    }
    void close(SessionId session, const std::string& reason) override {
      inner.close(session, reason);
    }
    void step(double wait) override { inner.step(wait); }
    fl::EventScheduler& scheduler() override { return inner.scheduler(); }
    double now() const override { return inner.now(); }
    const char* name() const override { return "forwarding"; }
  };
  transport::LoopbackTransport net{transport::TransportLimits{}};
  Forwarding traced(net);
  OpenRecorder handler;
  traced.set_handler(&handler);
  ScriptedPeer peer(net, 107);
  ASSERT_TRUE(peer.endpoint.connect());
  ASSERT_EQ(handler.opened.size(), 1u);
  const wire::SharedBytes tail = some_body(769, 61);
  const auto head = transport::encode_dispatch_head(dispatch_fields(2), 769);
  transport::ServerTransport& base = traced;
  ASSERT_TRUE(base.send(handler.opened[0], FrameType::kDispatch, head, tail,
                        wire::crc32c(tail)));
  net.step(0.0);
  ASSERT_EQ(traced.bodies.size(), 1u);
  EXPECT_EQ(traced.bodies[0], joined(head, tail));
  ASSERT_EQ(peer.frames.size(), 1u);
  EXPECT_EQ(peer.frames[0].body, joined(head, tail));
}

TEST(LoopbackChaos, CrashAndResumeReproducesTrajectory) {
  // Kill the server (destroy runtime + transport) mid-run, after a
  // commit-boundary checkpoint, bring up a fresh server with resume and
  // fresh clients (their caches are cold — retraining is deterministic),
  // and require the final trajectory byte-identical to an uninterrupted
  // run of the same configuration.
  //
  // The loopback delivers synchronously, so an all-alive fleet cascades
  // through every round inside one step() — there is no "mid-run" to crash
  // in. A dead client plus a dispatch deadline paces the run instead: each
  // wave containing the dead client stalls until advance_time() fires the
  // abandon, so rounds commit one deadline at a time and the crash lands
  // between commits.
  constexpr std::size_t kDead = 3;
  transport::TransportServerConfig chaos;
  chaos.dispatch_deadline_seconds = 5.0;

  LoopbackRun uninterrupted("fedbiad", chaos, kDead);
  const auto full = uninterrupted.drive(/*advance_dt=*/1.0);
  expect_conserved(full);
  const std::string want = tools::trajectory_text(full.sim);

  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / "transport_ckpt")
          .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  std::size_t crash_round = 0;
  {
    transport::TransportServerConfig scfg = chaos;
    scfg.checkpoint.directory = dir;
    scfg.checkpoint.every_rounds = 1;
    LoopbackRun run("fedbiad", scfg, kDead);
    run.server->start();
    for (auto& c : run.clients) c->start();
    std::size_t guard = 0;
    while (run.server->rounds_completed() < 1 && ++guard < 10000) {
      run.net.step(0.0);
      for (auto& c : run.clients) c->pump(0.0);
      run.net.advance_time(1.0);
    }
    crash_round = run.server->rounds_completed();
    ASSERT_GE(crash_round, 1u);
    ASSERT_LT(crash_round, run.w.sim.rounds) << "nothing left to resume";
    // Scope exit = SIGKILL: no finish(), no Fin, sessions just vanish.
  }

  transport::TransportServerConfig scfg = chaos;
  scfg.checkpoint.directory = dir;
  scfg.checkpoint.every_rounds = 1;
  scfg.checkpoint.resume = true;
  LoopbackRun resumed("fedbiad", scfg, kDead);
  const auto result = resumed.drive(/*advance_dt=*/1.0);
  expect_conserved(result);
  EXPECT_EQ(result.sim.rounds.size(), resumed.w.sim.rounds);
  EXPECT_EQ(tools::trajectory_text(result.sim), want);
  std::filesystem::remove_all(dir);
}

// --- decode-on-arrival worker pool ----------------------------------------

TEST(DecodeWorkers, TrajectoryBitIdenticalAcrossWorkerCounts) {
  // The tentpole contract: moving verify+decode onto 1, 2, or 4 pool
  // workers must not move a single byte of the trajectory relative to the
  // single-threaded engine, in either aggregation style.
  for (const char* method : {"fedavg", "fedbiad"}) {
    const auto w = tools::make_demo_workload(method, true);
    const std::string want =
        tools::trajectory_text(tools::reference_run(w, method));
    for (const std::size_t workers :
         {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
      transport::TransportServerConfig scfg;
      scfg.decode_workers = workers;
      LoopbackRun run(method, scfg);
      const auto result = run.drive();
      expect_conserved(result);
      EXPECT_EQ(tools::trajectory_text(result.sim), want)
          << method << " with " << workers << " decode workers";
      for (auto& c : run.clients) EXPECT_TRUE(c->finished());
    }
  }
}

TEST(DecodeWorkers, FullQueueParksThenDrainsBitIdentically) {
  // One worker and a depth-1 queue: within a single loopback drain several
  // uploads land back to back, so all but the first must park — and the
  // scheduler tick must resubmit them in arrival order. The trajectory
  // still may not drift from the inline reference.
  const auto w = tools::make_demo_workload("fedavg", true);
  const std::string want =
      tools::trajectory_text(tools::reference_run(w, "fedavg"));
  transport::TransportServerConfig scfg;
  scfg.decode_workers = 1;
  scfg.decode_queue_depth = 1;
  LoopbackRun run("fedavg", scfg);
  const auto result = run.drive();
  expect_conserved(result);
  EXPECT_EQ(tools::trajectory_text(result.sim), want);
  EXPECT_GT(result.decode_parked, 0u) << "depth-1 queue never filled";
  EXPECT_EQ(result.decode_shed, 0u);
}

TEST(DecodeWorkers, ParkedOverflowShedsSessionsAndStillConserves) {
  // max_parked_uploads = 0 turns every park into a shed: the submitting
  // session is closed with a rejected-delivery charge and the client must
  // reconnect and resend from its cache. The run still completes every
  // round and the conservation ledger still balances exactly.
  transport::TransportServerConfig scfg;
  scfg.decode_workers = 1;
  scfg.decode_queue_depth = 1;
  scfg.max_parked_uploads = 0;
  LoopbackRun run("fedavg", scfg);
  const auto result = run.drive();
  expect_conserved(result);
  EXPECT_GT(result.decode_shed, 0u);
  EXPECT_GT(result.sim.total_rejected_deliveries, 0u);
  EXPECT_GT(result.sim.total_rejected_bytes, 0u);
  EXPECT_EQ(result.sim.rounds.size(), run.w.sim.rounds);
  for (auto& c : run.clients) EXPECT_TRUE(c->finished());
}

TEST(DecodeWorkers, CorruptUploadsChargeAndRetryFromTheWorkerPath) {
  // The worker path must reproduce the inline rejection machinery exactly:
  // a corrupt payload detected on a pool worker still burns a delivery
  // attempt, still charges the rejected ledgers, and still Rejects with
  // retry until max_upload_attempts terminally rejects the dispatch.
  transport::TransportServerConfig scfg;
  scfg.max_upload_attempts = 2;
  scfg.decode_workers = 2;
  LoopbackRun run("fedavg", scfg, SIZE_MAX,
                  [](transport::TransportClientConfig& cfg, std::size_t c) {
                    if (c == 1) cfg.corrupt_probability = 1.0;
                  });
  const auto result = run.drive();
  expect_conserved(result);
  EXPECT_GT(result.sim.total_rejected, 0u);
  EXPECT_GE(result.sim.total_rejected_deliveries,
            result.sim.total_rejected * 2);
  EXPECT_GT(result.sim.total_rejected_bytes, 0u);
  EXPECT_EQ(result.sim.total_committed + result.sim.total_rejected,
            result.sim.total_dispatched);
}

TEST(DecodeWorkers, ResendAfterDisconnectDedupsAtFinishTime) {
  // Worker-vs-transport interleaving: client 2 drops right after its first
  // upload, reconnects, and resends from its cache — so the duplicate can
  // already be sitting decoded in the queue when the original finishes.
  // The dedup check runs at finish time in arrival order, so the duplicate
  // is charged and Ack'd, never aggregated, and the trajectory stays
  // byte-identical to the undisturbed reference.
  const auto w = tools::make_demo_workload("fedbiad", true);
  const std::string want =
      tools::trajectory_text(tools::reference_run(w, "fedbiad"));
  transport::TransportServerConfig scfg;
  scfg.decode_workers = 2;
  LoopbackRun run("fedbiad", scfg, SIZE_MAX,
                  [](transport::TransportClientConfig& cfg, std::size_t c) {
                    if (c == 2) cfg.drop_connection_after_uploads = 1;
                  });
  const auto result = run.drive();
  expect_conserved(result);
  EXPECT_EQ(tools::trajectory_text(result.sim), want);
  EXPECT_GE(result.sessions_resumed, 1u);
}

TEST(DecodeWorkers, DeadlineAbandonsMatchInlineUnderWorkers) {
  // Deadline coupling: decodes in flight belong to the past, so the tick
  // hook must finish them before a later virtual-time deadline can abandon
  // their dispatches. Same dead client, same deadline — the worker run
  // must land on the identical trajectory the inline run produces.
  transport::TransportServerConfig scfg;
  scfg.dispatch_deadline_seconds = 5.0;
  LoopbackRun inline_run("fedavg", scfg, /*skip_client=*/3);
  const auto inline_result = inline_run.drive(/*advance_dt=*/1.0);
  expect_conserved(inline_result);
  ASSERT_GT(inline_result.sim.total_abandoned, 0u);

  scfg.decode_workers = 2;
  LoopbackRun worker_run("fedavg", scfg, /*skip_client=*/3);
  const auto result = worker_run.drive(/*advance_dt=*/1.0);
  expect_conserved(result);
  EXPECT_EQ(tools::trajectory_text(result.sim),
            tools::trajectory_text(inline_result.sim));
  EXPECT_EQ(result.sim.total_abandoned, inline_result.sim.total_abandoned);
}

// --- epoll TCP backend ----------------------------------------------------

TEST(Tcp, EndToEndMatchesEngineAcrossThreads) {
  const auto w = tools::make_demo_workload("fedavg", true);
  const std::string want =
      tools::trajectory_text(tools::reference_run(w, "fedavg"));

  transport::TransportServerConfig scfg;
  scfg.base = w.sim;
  scfg.scenario_name = "tcp";
  transport::EpollServerTransport net({}, 0);
  const std::uint16_t port = net.port();
  transport::ServerRuntime server(scfg, net, w.factory, w.test, w.partition,
                                  tools::make_demo_strategy("fedavg"));

  std::vector<std::thread> threads;
  std::vector<int> status(w.partition.size(), -1);
  for (std::size_t c = 0; c < w.partition.size(); ++c) {
    if (w.partition[c].empty()) continue;
    threads.emplace_back([&, c] {
      transport::TransportClientConfig ccfg;
      ccfg.client_id = c;
      ccfg.base = w.sim;
      ccfg.payload_kind = w.payload_kind;
      ccfg.reconnect_timeout_seconds = 30.0;
      transport::TcpClientTransport tcp("127.0.0.1", port);
      transport::ClientRuntime runtime(ccfg, tcp, w.factory, w.train,
                                       w.partition[c],
                                       tools::make_demo_strategy("fedavg"));
      status[c] = runtime.run() ? 0 : 1;
    });
  }
  const auto result = server.run();
  for (auto& t : threads) t.join();
  expect_conserved(result);
  EXPECT_EQ(tools::trajectory_text(result.sim), want);
  for (std::size_t c = 0; c < w.partition.size(); ++c) {
    if (!w.partition[c].empty()) EXPECT_EQ(status[c], 0) << "client " << c;
  }
}

// Connects a raw socket to `net` and steps it until the session opens.
// rcvbuf > 0 shrinks the socket's receive buffer first, so that a peer that
// does not read fills the server's socket early and its writes park.
int dial_raw(transport::EpollServerTransport& net, const OpenRecorder& handler,
             int rcvbuf = 0) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  if (rcvbuf > 0) {
    EXPECT_EQ(
        ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof rcvbuf), 0);
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(net.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  const std::size_t before = handler.opened.size();
  for (int i = 0; i < 200 && handler.opened.size() == before; ++i) {
    net.step(0.05);
  }
  EXPECT_EQ(handler.opened.size(), before + 1);
  return fd;
}

// Reads `n` bytes from `fd` (giving up after 30 s), stepping `net` between
// reads so that it writes what it parked.
std::vector<std::uint8_t> read_from(int fd, std::size_t n,
                                    transport::ServerTransport& net) {
  std::vector<std::uint8_t> got;
  std::vector<std::uint8_t> buf(1 << 16);
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (got.size() < n && std::chrono::steady_clock::now() < give_up) {
    net.step(0.0);
    pollfd pfd{fd, POLLIN, 0};
    ::poll(&pfd, 1, 1);
    const ssize_t r = ::recv(
        fd, buf.data(), std::min(buf.size(), n - got.size()), MSG_DONTWAIT);
    if (r > 0) got.insert(got.end(), buf.begin(), buf.begin() + r);
  }
  return got;
}

TEST(Tcp, HeadTailSendWritesReferenceBytes) {
  // The epoll backend queues header and head by copy and the tail by
  // reference, and writes them with sendmsg; a raw socket must read exactly
  // the reference frame.
  transport::EpollServerTransport net({}, 0);
  OpenRecorder handler;
  net.set_handler(&handler);
  const int fd = dial_raw(net, handler);
  ASSERT_EQ(handler.opened.size(), 1u);
  const SessionId session = handler.opened[0];
  transport::ServerTransport& base = net;

  for (const std::size_t n : kBroadcastSizes) {
    const wire::SharedBytes tail = some_body(n, 70 + n);
    const auto head = transport::encode_dispatch_head(dispatch_fields(n), n);
    const auto want = reference_frame(FrameType::kDispatch, joined(head, tail));
    // A control frame first, through send(body): both sends share the queue.
    const auto ack = transport::encode(transport::UploadAckMsg{n});
    const auto want_ack = reference_frame(FrameType::kUploadAck, ack);
    ASSERT_TRUE(net.send(session, FrameType::kUploadAck, ack));
    ASSERT_TRUE(base.send(session, FrameType::kDispatch, head, tail,
                          wire::crc32c(tail)));
    const auto got = read_from(fd, want_ack.size() + want.size(), net);
    ASSERT_EQ(got.size(), want_ack.size() + want.size()) << n;
    EXPECT_TRUE(same_bytes(std::span(got).first(want_ack.size()), want_ack))
        << n;
    EXPECT_TRUE(same_bytes(std::span(got).subspan(want_ack.size()), want))
        << n;
  }
  EXPECT_TRUE(handler.closed.empty());
  ::close(fd);
}

TEST(Tcp, BackpressureRefusesAndDrainsLikeLoopback) {
  // LoopbackChaos.BackpressureRefusesParksAndDrains over a real socket: a
  // peer that does not read fills the kernel's buffers, then the session's
  // send budget, and the server refuses.
  transport::TransportLimits limits;
  limits.send_buffer_bytes = 1 << 20;
  transport::EpollServerTransport net(limits, 0);
  OpenRecorder handler;
  net.set_handler(&handler);
  const int fd = dial_raw(net, handler, 4096);
  ASSERT_EQ(handler.opened.size(), 1u);
  const SessionId session = handler.opened[0];
  transport::ServerTransport& base = net;
  EXPECT_EQ(net.send_space(session), limits.send_buffer_bytes);
  EXPECT_THROW(
      (void)net.send(session, FrameType::kDispatch,
                     some_body(limits.send_buffer_bytes, 79)),
      CheckError);

  std::vector<std::uint8_t> want;  // every accepted frame, in order
  const auto accept = [&](FrameType type, std::span<const std::uint8_t> body) {
    const auto frame = reference_frame(type, body);
    want.insert(want.end(), frame.begin(), frame.end());
  };
  constexpr std::size_t kTail = 32 << 10;
  for (std::size_t i = 0;; ++i) {
    ASSERT_LT(i, 4096u) << "the server never refused";
    const wire::SharedBytes tail = some_body(kTail, 80 + i);
    const auto head =
        transport::encode_dispatch_head(dispatch_fields(i), kTail);
    const std::size_t space = net.send_space(session);
    if (!base.send(session, FrameType::kDispatch, head, tail,
                   wire::crc32c(tail))) {
      // Refused only because it does not fit, and nothing was queued.
      EXPECT_GT(transport::frame_wire_size(head.size() + kTail), space);
      EXPECT_EQ(net.send_space(session), space);
      break;
    }
    accept(FrameType::kDispatch, joined(head, tail));
    net.step(0.0);
  }
  // Let delayed ACKs land, then make the server write once more: the kernel
  // takes what they freed (EPOLLOUT stays quiet until a third of its buffer
  // is free) and is full from then on, since the peer reads nothing. So
  // each frame after that queues whole, and send_space moves by exactly its
  // wire size.
  for (int i = 0; i < 6; ++i) net.step(0.05);
  if (net.send_space(session) >= transport::kFrameOverheadBytes) {
    ASSERT_TRUE(net.send(session, FrameType::kFin, {}));
    accept(FrameType::kFin, {});
  }
  const std::size_t space = net.send_space(session);
  std::size_t left = space;
  if (space >= transport::kFrameOverheadBytes) {
    const auto fit = some_body(space - transport::kFrameOverheadBytes, 81);
    const auto over = some_body(fit.size() + 1, 81);
    EXPECT_FALSE(net.send(session, FrameType::kUploadAck, over));
    EXPECT_EQ(net.send_space(session), space);
    ASSERT_TRUE(net.send(session, FrameType::kUploadAck, fit));
    accept(FrameType::kUploadAck, fit);
    left = 0;
  }
  EXPECT_EQ(net.send_space(session), left);
  EXPECT_FALSE(net.send(session, FrameType::kFin, {}));  // 9 bytes > left
  EXPECT_EQ(net.send_space(session), left);
  for (int i = 0; i < 3; ++i) net.step(0.01);
  EXPECT_TRUE(handler.drained.empty());

  // The peer reads: the queue drains to the last byte, on_drain fires once,
  // and the budget is whole again.
  const auto got = read_from(fd, want.size(), net);
  ASSERT_EQ(got.size(), want.size());
  EXPECT_TRUE(same_bytes(got, want));
  for (int i = 0; i < 3; ++i) net.step(0.01);
  ASSERT_EQ(handler.drained.size(), 1u);
  EXPECT_EQ(handler.drained[0], session);
  EXPECT_EQ(net.send_space(session), limits.send_buffer_bytes);
  EXPECT_TRUE(handler.closed.empty());
  ::close(fd);

  // And the eviction half: a peer that never reads is closed once the
  // write deadline passes.
  limits.write_deadline_seconds = 0.2;
  transport::EpollServerTransport strict(limits, 0);
  OpenRecorder evicted;
  strict.set_handler(&evicted);
  const int stalled = dial_raw(strict, evicted, 4096);
  ASSERT_EQ(evicted.opened.size(), 1u);
  const auto body = some_body(kTail, 82);
  for (std::size_t i = 0; i < 4096; ++i) {
    if (!strict.send(evicted.opened[0], FrameType::kDispatch, body)) break;
    strict.step(0.0);
  }
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (evicted.closed.empty() && std::chrono::steady_clock::now() < give_up) {
    strict.step(0.05);
  }
  ASSERT_EQ(evicted.closed.size(), 1u);
  EXPECT_NE(evicted.closed[0].second.find("write deadline exceeded"),
            std::string::npos);
  EXPECT_TRUE(evicted.drained.empty());
  ::close(stalled);
}

TEST(Tcp, QueuedTailOutlivesTheCallersReference) {
  // The caller's SharedBytes dies right after send(); the socket takes part
  // of the tail, and the rest is written from the queue's own reference.
  // Under ASan a queue that kept only a pointer reads freed memory here.
  transport::TransportLimits limits;
  limits.send_buffer_bytes = 8 << 20;
  transport::EpollServerTransport net(limits, 0);
  OpenRecorder handler;
  net.set_handler(&handler);
  const int fd = dial_raw(net, handler, 4096);
  ASSERT_EQ(handler.opened.size(), 1u);
  const SessionId session = handler.opened[0];
  // Longer than the kernel's largest send buffer plus the peer's receive
  // buffer, so the first write cannot take it all.
  constexpr std::size_t kTail = 6 << 20;
  const auto head = transport::encode_dispatch_head(dispatch_fields(1), kTail);
  std::vector<std::uint8_t> want;
  {
    wire::SharedBytes tail = some_body(kTail, 83);
    want = reference_frame(FrameType::kDispatch, joined(head, tail));
    transport::ServerTransport& base = net;
    ASSERT_TRUE(base.send(session, FrameType::kDispatch, head, tail,
                          wire::crc32c(tail)));
  }
  // The write stopped inside the tail: the prefix is out, the trailer not.
  const std::size_t queued = limits.send_buffer_bytes - net.send_space(session);
  EXPECT_GT(queued, 4u);
  EXPECT_LT(queued, kTail + 4);
  const auto got = read_from(fd, want.size(), net);
  ASSERT_EQ(got.size(), want.size());
  EXPECT_TRUE(same_bytes(got, want));
  EXPECT_EQ(net.send_space(session), limits.send_buffer_bytes);
  EXPECT_TRUE(handler.closed.empty());
  ::close(fd);
}

TEST(Tcp, ClientSendSurvivesPartialWrites) {
  // A multi-MB Upload to a raw reader that pauses 100 us after each read,
  // through a small receive buffer: the client's sendmsg stops partway
  // through the payload many times and resumes where it stopped.
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  const int rcvbuf = 4096;  // inherited by the accepted socket
  ASSERT_EQ(::setsockopt(listener, SOL_SOCKET, SO_RCVBUF, &rcvbuf,
                         sizeof rcvbuf),
            0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
            0);
  ASSERT_EQ(::listen(listener, 1), 0);
  socklen_t len = sizeof addr;
  ASSERT_EQ(::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len),
            0);
  transport::TcpClientTransport client("127.0.0.1", ntohs(addr.sin_port));
  ASSERT_TRUE(client.connect());
  const int peer = ::accept(listener, nullptr, nullptr);
  ASSERT_GE(peer, 0);
  const timeval patience{5, 0};  // a lost byte fails the test, not hangs it
  ASSERT_EQ(::setsockopt(peer, SOL_SOCKET, SO_RCVTIMEO, &patience,
                         sizeof patience),
            0);

  constexpr std::size_t kPayload = 3 << 20;
  const auto payload = some_body(kPayload, 84);
  const transport::UploadMsg upload{.dispatch_index = 9,
                                    .samples = 60,
                                    .is_update = 1,
                                    .train_seconds = 0.25,
                                    .mean_loss = 1.5,
                                    .last_loss = 1.25,
                                    .payload = {}};
  const auto head = transport::encode_upload_head(upload, kPayload);
  const auto fin = transport::encode(transport::FinMsg{4});
  std::vector<std::uint8_t> want =
      reference_frame(FrameType::kUpload, joined(head, payload));
  const auto want_fin = reference_frame(FrameType::kFin, fin);
  want.insert(want.end(), want_fin.begin(), want_fin.end());

  std::vector<std::uint8_t> got;
  std::thread reader([&] {
    std::vector<std::uint8_t> buf(64 << 10);
    while (got.size() < want.size()) {
      const ssize_t r = ::recv(peer, buf.data(), buf.size(), 0);
      if (r <= 0) return;
      got.insert(got.end(), buf.begin(), buf.begin() + r);
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });
  const bool sent = client.send(FrameType::kUpload, head, payload);
  const bool sent_fin = client.send(FrameType::kFin, fin);
  if (!sent || !sent_fin) client.shutdown();  // unblocks the reader
  reader.join();
  EXPECT_TRUE(sent);
  EXPECT_TRUE(sent_fin);
  EXPECT_EQ(got.size(), want.size());
  EXPECT_TRUE(same_bytes(got, want));
  ::close(peer);
  ::close(listener);
}

TEST(Tcp, GarbageAndOversizedStreamsAreClosed) {
  struct RecordingHandler : transport::ServerTransport::Handler {
    std::vector<SessionId> opened;
    std::vector<std::pair<SessionId, std::string>> closed;
    void on_open(SessionId s) override { opened.push_back(s); }
    void on_frame(SessionId, Frame&&) override {}
    void on_close(SessionId s, const std::string& r) override {
      closed.emplace_back(s, r);
    }
    void on_drain(SessionId) override {}
  };
  transport::EpollServerTransport net({}, 0);
  RecordingHandler handler;
  net.set_handler(&handler);

  auto dial = [&net] {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(net.port());
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
              0);
    return fd;
  };

  // Raw garbage: not even a plausible frame.
  const int garbage_fd = dial();
  const auto junk = some_body(64, 16);
  ASSERT_EQ(::send(garbage_fd, junk.data(), junk.size(), 0),
            static_cast<ssize_t>(junk.size()));
  std::size_t guard = 0;
  while (handler.closed.size() < 1 && ++guard < 200) net.step(0.05);
  ASSERT_EQ(handler.closed.size(), 1u);
  EXPECT_NE(handler.closed[0].second.find("framing error"), std::string::npos);
  ::close(garbage_fd);

  // A 4GiB length announcement: rejected at the prefix.
  const int huge_fd = dial();
  const std::uint8_t huge[5] = {0xFF, 0xFF, 0xFF, 0xFF, 0x01};
  ASSERT_EQ(::send(huge_fd, huge, sizeof huge, 0),
            static_cast<ssize_t>(sizeof huge));
  guard = 0;
  while (handler.closed.size() < 2 && ++guard < 200) net.step(0.05);
  ASSERT_EQ(handler.closed.size(), 2u);
  EXPECT_NE(handler.closed[1].second.find("framing error"), std::string::npos);
  ::close(huge_fd);
}

}  // namespace
}  // namespace fedbiad
