/**
 * @file
 * Frame packetizer tests, including parameterized round-trip sweeps,
 * corruption detection, a wire-format golden against a bit-serial
 * reference, and a seeded mutation sweep over unpack.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "base/random.hh"
#include "comm/packetizer.hh"

namespace mindful::comm {
namespace {

TEST(Crc16Test, KnownVector)
{
    // CRC-16/CCITT-FALSE("123456789") = 0x29B1.
    const std::uint8_t data[] = {'1', '2', '3', '4', '5', '6', '7', '8',
                                 '9'};
    EXPECT_EQ(crc16(data, 9), 0x29B1);
}

TEST(Crc16Test, EmptyInputIsInitValue)
{
    EXPECT_EQ(crc16(nullptr, 0), 0xFFFF);
}

TEST(PacketizerTest, RoundTripSimpleFrame)
{
    Packetizer packetizer({10});
    std::vector<std::uint32_t> samples{0, 511, 1023, 512, 1};
    auto frame = packetizer.pack(42, samples);
    auto unpacked = packetizer.unpack(frame);
    EXPECT_TRUE(unpacked.valid);
    EXPECT_EQ(unpacked.sequence, 42u);
    EXPECT_EQ(unpacked.samples, samples);
}

TEST(PacketizerTest, EmptyPayload)
{
    Packetizer packetizer({10});
    auto frame = packetizer.pack(7, {});
    auto unpacked = packetizer.unpack(frame);
    EXPECT_TRUE(unpacked.valid);
    EXPECT_TRUE(unpacked.samples.empty());
}

TEST(PacketizerTest, FrameBitsAccounting)
{
    Packetizer packetizer({10});
    // 1024 samples x 10 b = 10240 payload bits = 1280 bytes,
    // + 6 header + 2 CRC bytes = 1288 bytes.
    EXPECT_EQ(packetizer.frameBits(1024), 1288u * 8u);
    auto frame = packetizer.pack(0, std::vector<std::uint32_t>(1024, 5));
    EXPECT_EQ(frame.size() * 8, packetizer.frameBits(1024));
}

TEST(PacketizerTest, OverheadShrinksWithPayload)
{
    Packetizer packetizer({10});
    EXPECT_GT(packetizer.overheadFraction(4),
              packetizer.overheadFraction(1024));
    EXPECT_LT(packetizer.overheadFraction(1024), 0.01);
}

TEST(PacketizerTest, CorruptionIsDetected)
{
    Packetizer packetizer({10});
    auto frame = packetizer.pack(1, {100, 200, 300});
    // Flip one payload bit.
    frame[Packetizer::headerBytes] ^= 0x10;
    EXPECT_FALSE(packetizer.unpack(frame).valid);
}

TEST(PacketizerTest, HeaderCorruptionIsDetected)
{
    Packetizer packetizer({10});
    auto frame = packetizer.pack(1, {100, 200, 300});
    frame[1] ^= 0x01; // sequence byte
    EXPECT_FALSE(packetizer.unpack(frame).valid);
}

TEST(PacketizerTest, BadSyncRejected)
{
    Packetizer packetizer({10});
    auto frame = packetizer.pack(1, {5});
    frame[0] = 0x00;
    EXPECT_FALSE(packetizer.unpack(frame).valid);
}

TEST(PacketizerTest, TruncatedFrameRejected)
{
    Packetizer packetizer({10});
    auto frame = packetizer.pack(1, {5, 6, 7});
    frame.resize(frame.size() - 3);
    EXPECT_FALSE(packetizer.unpack(frame).valid);
}

/** Re-seal a tampered frame so only the count check can reject it. */
void
resealCrc(std::vector<std::uint8_t> &frame)
{
    std::uint16_t checksum =
        crc16(frame.data(), frame.size() - Packetizer::crcBytes);
    frame[frame.size() - 2] = static_cast<std::uint8_t>(checksum >> 8);
    frame[frame.size() - 1] = static_cast<std::uint8_t>(checksum & 0xFF);
}

TEST(PacketizerTest, ForgedSampleCountRejectedWithoutAllocation)
{
    Packetizer packetizer({10});
    auto frame = packetizer.pack(1, {100, 200, 300});
    // Forge the header's sample count to the 16-bit maximum and
    // re-seal the CRC, imitating a hostile or bit-rotted peer whose
    // frame still checksums. The declared count exceeds what the
    // payload region can hold, so unpack must reject it up front —
    // before reserving sample storage from attacker-controlled input.
    frame[4] = 0xFF;
    frame[5] = 0xFF;
    resealCrc(frame);
    auto unpacked = packetizer.unpack(frame);
    EXPECT_FALSE(unpacked.valid);
    EXPECT_TRUE(unpacked.samples.empty());
    EXPECT_LT(unpacked.samples.capacity(), std::size_t{1024})
        << "reserve() ran on the forged count";
}

TEST(PacketizerTest, OverdeclaredCountByOneRejected)
{
    Packetizer packetizer({10});
    auto frame = packetizer.pack(9, {7, 8, 9, 10});
    // 4 samples x 10 b = 40 payload bits = 5 payload bytes, which
    // could also hold 40 / 10 = 4 samples exactly; declaring 5
    // (needing 50 bits) must fail validation.
    frame[5] = 5;
    resealCrc(frame);
    EXPECT_FALSE(packetizer.unpack(frame).valid);
}

TEST(PacketizerTest, DeclaredCountAtPayloadCapacityStillUnpacks)
{
    Packetizer packetizer({8});
    // 8-bit samples fill payload bytes exactly: declared count ==
    // payload capacity is the boundary case and must stay valid.
    std::vector<std::uint32_t> samples(64, 0xAB);
    auto frame = packetizer.pack(2, samples);
    auto unpacked = packetizer.unpack(frame);
    EXPECT_TRUE(unpacked.valid);
    EXPECT_EQ(unpacked.samples, samples);
}

TEST(PacketizerTest, MismatchedBitwidthRejected)
{
    Packetizer tx({10});
    Packetizer rx({12});
    auto frame = tx.pack(1, {5});
    EXPECT_FALSE(rx.unpack(frame).valid);
}

TEST(PacketizerDeathTest, OverRangeSamplePanics)
{
    Packetizer packetizer({10});
    EXPECT_DEATH(packetizer.pack(0, {1024}), "exceeds");
}

/** Property sweep: random payload round trip for many widths/sizes. */
class PacketizerRoundTrip
    : public ::testing::TestWithParam<std::tuple<unsigned, std::size_t>>
{
};

TEST_P(PacketizerRoundTrip, RandomPayloadsSurvive)
{
    auto [bits, count] = GetParam();
    Packetizer packetizer({bits});
    Rng rng(bits * 1000 + count);
    std::vector<std::uint32_t> samples(count);
    const std::uint32_t cap = (1u << bits) - 1;
    for (auto &s : samples)
        s = static_cast<std::uint32_t>(rng.uniformInt(0, cap));

    auto frame =
        packetizer.pack(static_cast<std::uint16_t>(count), samples);
    auto unpacked = packetizer.unpack(frame);
    ASSERT_TRUE(unpacked.valid)
        << "bits=" << bits << " count=" << count;
    EXPECT_EQ(unpacked.samples, samples);
    EXPECT_EQ(unpacked.sequence, static_cast<std::uint16_t>(count));
}

INSTANTIATE_TEST_SUITE_P(
    WidthsAndSizes, PacketizerRoundTrip,
    ::testing::Combine(::testing::Values(1u, 7u, 8u, 10u, 12u, 16u),
                       ::testing::Values(std::size_t{1}, std::size_t{3},
                                         std::size_t{64},
                                         std::size_t{1024})));

// --- wire-format golden ---------------------------------------------------

/** Bitwise CRC-16/CCITT-FALSE: one shift per message bit. */
std::uint16_t
referenceCrc16(const std::vector<std::uint8_t> &data)
{
    std::uint16_t crc = 0xFFFF;
    for (std::uint8_t byte : data) {
        crc ^= static_cast<std::uint16_t>(byte << 8);
        for (int bit = 0; bit < 8; ++bit) {
            if (crc & 0x8000)
                crc = static_cast<std::uint16_t>((crc << 1) ^ 0x1021);
            else
                crc = static_cast<std::uint16_t>(crc << 1);
        }
    }
    return crc;
}

/**
 * The documented frame built one bit at a time: sync, sequence,
 * width and count bytes, each sample MSB-first at @p bits bits with
 * zero padding to a byte, then the big-endian CRC over all of it.
 */
std::vector<std::uint8_t>
referenceFrame(std::uint16_t sequence, unsigned bits,
               const std::vector<std::uint32_t> &samples)
{
    std::vector<std::uint8_t> frame{
        Packetizer::syncByte,
        static_cast<std::uint8_t>(sequence >> 8),
        static_cast<std::uint8_t>(sequence & 0xFF),
        static_cast<std::uint8_t>(bits),
        static_cast<std::uint8_t>(samples.size() >> 8),
        static_cast<std::uint8_t>(samples.size() & 0xFF)};
    std::size_t cursor = 0;
    for (std::uint32_t sample : samples) {
        for (unsigned i = bits; i-- > 0; ++cursor) {
            if (cursor % 8 == 0)
                frame.push_back(0);
            const unsigned bit = (sample >> i) & 1u;
            frame.back() = static_cast<std::uint8_t>(
                frame.back() | (bit << (7 - cursor % 8)));
        }
    }
    const std::uint16_t crc = referenceCrc16(frame);
    frame.push_back(static_cast<std::uint8_t>(crc >> 8));
    frame.push_back(static_cast<std::uint8_t>(crc & 0xFF));
    return frame;
}

std::vector<std::uint32_t>
randomSamples(Rng &rng, unsigned bits, std::size_t count)
{
    std::vector<std::uint32_t> samples(count);
    const std::int64_t cap = (std::int64_t{1} << bits) - 1;
    for (auto &sample : samples)
        sample = static_cast<std::uint32_t>(rng.uniformInt(0, cap));
    return samples;
}

TEST(PacketizerGolden, PackMatchesBitSerialReferenceForEveryWidth)
{
    Rng rng(1501);
    for (unsigned bits = 1; bits <= 16; ++bits) {
        Packetizer packetizer({bits});
        for (const std::size_t count :
             {0u, 1u, 2u, 3u, 7u, 8u, 9u, 255u, 256u, 257u}) {
            const auto samples = randomSamples(rng, bits, count);
            // All-ones samples too: every payload bit set.
            const std::vector<std::uint32_t> ones(count,
                                                  (1u << bits) - 1);
            for (const auto *payload : {&samples, &ones}) {
                const auto sequence =
                    static_cast<std::uint16_t>(rng.uniformInt(0, 0xFFFF));
                const auto frame = packetizer.pack(sequence, *payload);
                ASSERT_EQ(frame, referenceFrame(sequence, bits, *payload))
                    << "bits=" << bits << " count=" << count;
                ASSERT_EQ(frame.size() * 8, packetizer.frameBits(count));
            }
        }
    }
}

TEST(PacketizerGolden, Crc16MatchesBitwiseReference)
{
    // Every size up to 600 bytes at every start offset 0-7 into one
    // buffer, so the 8-byte slices and the byte-wise tail are checked
    // at each alignment.
    Rng rng(1502);
    std::vector<std::uint8_t> buffer(600 + 7);
    for (auto &byte : buffer)
        byte = static_cast<std::uint8_t>(rng.uniformInt(0, 255));
    for (std::size_t offset = 0; offset < 8; ++offset) {
        for (std::size_t size = 0; size <= 600; ++size) {
            const std::uint8_t *data = buffer.data() + offset;
            const std::vector<std::uint8_t> copy(data, data + size);
            ASSERT_EQ(crc16(data, size), referenceCrc16(copy))
                << "offset=" << offset << " size=" << size;
        }
    }
}

// --- seeded mutation sweep over unpack ----------------------------------

/**
 * The unpack contract on arbitrary input: either the frame is
 * rejected, or its CRC matches and it is exactly what pack() would
 * produce for the decoded samples — same header, same payload bits
 * (padding and trailing payload bytes aside), every sample in range.
 */
void
expectRejectedOrExact(const Packetizer &packetizer,
                      const std::vector<std::uint8_t> &mutated)
{
    // An exact-size copy, so a read past the end is a heap overflow
    // the sanitizers see rather than a read of spare capacity.
    const std::vector<std::uint8_t> frame(mutated.begin(), mutated.end());
    const UnpackedFrame out = packetizer.unpack(frame);
    if (!out.valid)
        return;

    const unsigned bits = packetizer.config().sampleBits;
    ASSERT_GE(frame.size(), Packetizer::headerBytes + Packetizer::crcBytes);
    const std::vector<std::uint8_t> body(frame.begin(), frame.end() - 2);
    ASSERT_EQ(referenceCrc16(body),
              static_cast<std::uint16_t>((frame[frame.size() - 2] << 8) |
                                         frame[frame.size() - 1]));
    for (std::uint32_t sample : out.samples)
        ASSERT_LT(sample, 1u << bits);

    const auto repacked = packetizer.pack(out.sequence, out.samples);
    ASSERT_TRUE(std::equal(repacked.begin(),
                           repacked.begin() + Packetizer::headerBytes,
                           frame.begin()));
    const std::size_t payload_bits = out.samples.size() * bits;
    for (std::size_t byte = 0; byte * 8 < payload_bits; ++byte) {
        const std::size_t live = std::min<std::size_t>(
            8, payload_bits - byte * 8);
        const auto mask = static_cast<std::uint8_t>(0xFF << (8 - live));
        ASSERT_EQ(repacked[Packetizer::headerBytes + byte] & mask,
                  frame[Packetizer::headerBytes + byte] & mask)
            << "payload byte " << byte;
    }
    const UnpackedFrame again = packetizer.unpack(repacked);
    ASSERT_TRUE(again.valid);
    ASSERT_EQ(again.sequence, out.sequence);
    ASSERT_EQ(again.samples, out.samples);
}

/** Recompute the trailing CRC so only the structural checks remain. */
void
reseal(std::vector<std::uint8_t> &frame)
{
    if (frame.size() < Packetizer::crcBytes)
        return;
    const std::uint16_t checksum =
        crc16(frame.data(), frame.size() - Packetizer::crcBytes);
    frame[frame.size() - 2] = static_cast<std::uint8_t>(checksum >> 8);
    frame[frame.size() - 1] = static_cast<std::uint8_t>(checksum & 0xFF);
}

TEST(PacketizerMutation, MutatedFramesAreRejectedOrRoundTripExactly)
{
    Rng rng(1503);
    std::size_t accepted = 0;
    std::size_t mutations = 0;
    for (const unsigned bits : {1u, 3u, 8u, 10u, 13u, 16u}) {
        Packetizer packetizer({bits});
        auto draw = [&](std::int64_t lo, std::int64_t hi) {
            return static_cast<std::size_t>(rng.uniformInt(lo, hi));
        };
        auto validFrame = [&] {
            const auto samples = randomSamples(rng, bits, draw(0, 300));
            return packetizer.pack(
                static_cast<std::uint16_t>(draw(0, 0xFFFF)), samples);
        };
        // A cut point in [0, size], or an index into the frame.
        auto cut = [&](std::size_t size, bool index = false) {
            return draw(0, static_cast<std::int64_t>(size) - (index ? 1 : 0));
        };
        for (int trial = 0; trial < 1500; ++trial) {
            std::vector<std::uint8_t> frame = validFrame();
            switch (draw(0, 5)) {
            case 0: // byte flips anywhere, header and CRC included
                for (std::size_t n = draw(1, 4); n-- > 0;)
                    frame[cut(frame.size(), true)] ^=
                        static_cast<std::uint8_t>(draw(1, 255));
                break;
            case 1: // truncation
                frame.resize(cut(frame.size(), true));
                break;
            case 2: { // splice: one frame's head onto another's tail
                const std::vector<std::uint8_t> other = validFrame();
                frame.resize(cut(frame.size()));
                frame.insert(frame.end(),
                             other.begin() + static_cast<std::ptrdiff_t>(
                                                 cut(other.size())),
                             other.end());
                break;
            }
            case 3: // forged count: anywhere, or just around the truth
                if (draw(0, 1) == 0) {
                    frame[4] = static_cast<std::uint8_t>(draw(0, 255));
                    frame[5] = static_cast<std::uint8_t>(draw(0, 255));
                } else {
                    const std::size_t count =
                        ((frame[4] << 8) | frame[5]) + draw(0, 16) - 8;
                    frame[4] = static_cast<std::uint8_t>(count >> 8);
                    frame[5] = static_cast<std::uint8_t>(count & 0xFF);
                }
                break;
            case 4: // forged width
                frame[3] = static_cast<std::uint8_t>(draw(0, 255));
                break;
            default: // trailing garbage
                for (std::size_t n = draw(1, 8); n-- > 0;)
                    frame.insert(frame.end() - 2,
                                 static_cast<std::uint8_t>(draw(0, 255)));
                break;
            }
            // Most mutations are resealed, so they get past the CRC
            // and exercise the structural checks behind it.
            if (draw(0, 3) != 0)
                reseal(frame);
            ++mutations;
            expectRejectedOrExact(packetizer, frame);
            if (HasFatalFailure())
                return;
            accepted += packetizer.unpack(frame).valid ? 1 : 0;
        }
    }
    // Both outcomes occur, so neither branch of the oracle is vacuous.
    EXPECT_GT(accepted, mutations / 20);
    EXPECT_LT(accepted, mutations);
}

} // namespace
} // namespace mindful::comm
