#include "comm/packetizer.hh"

#include <array>

#include "base/logging.hh"

namespace mindful::comm {

namespace {

using CrcTables = std::array<std::array<std::uint16_t, 256>, 8>;

/**
 * Slicing-by-8 tables of CRC-16/CCITT-FALSE (poly 0x1021, MSB first):
 * tables[j][b] is the zero-init CRC of byte b followed by j zero
 * bytes, so tables[0] is the classic byte-at-a-time table.
 */
constexpr CrcTables
makeCrcTables()
{
    CrcTables tables{};
    for (unsigned byte = 0; byte < 256; ++byte) {
        auto crc = static_cast<std::uint16_t>(byte << 8);
        for (int bit = 0; bit < 8; ++bit) {
            if (crc & 0x8000)
                crc = static_cast<std::uint16_t>((crc << 1) ^ 0x1021);
            else
                crc = static_cast<std::uint16_t>(crc << 1);
        }
        tables[0][byte] = crc;
    }
    for (std::size_t j = 1; j < tables.size(); ++j)
        for (unsigned byte = 0; byte < 256; ++byte) {
            const std::uint16_t prev = tables[j - 1][byte];
            tables[j][byte] = static_cast<std::uint16_t>(
                (prev << 8) ^ tables[0][prev >> 8]);
        }
    return tables;
}

constexpr CrcTables kCrcTables = makeCrcTables();

} // namespace

std::uint16_t
crc16(const std::uint8_t *data, std::size_t size)
{
    // The register meets only the first two bytes of each 8-byte block;
    // by linearity the block's CRC is the XOR of each byte's table
    // entry for the number of bytes that follow it.
    std::uint16_t crc = 0xFFFF;
    std::size_t i = 0;
    for (; i + 8 <= size; i += 8) {
        const std::uint8_t *d = data + i;
        crc = static_cast<std::uint16_t>(
            kCrcTables[7][d[0] ^ (crc >> 8)] ^
            kCrcTables[6][d[1] ^ (crc & 0xFF)] ^ kCrcTables[5][d[2]] ^
            kCrcTables[4][d[3]] ^ kCrcTables[3][d[4]] ^
            kCrcTables[2][d[5]] ^ kCrcTables[1][d[6]] ^
            kCrcTables[0][d[7]]);
    }
    for (; i < size; ++i)
        crc = static_cast<std::uint16_t>(
            (crc << 8) ^ kCrcTables[0][(crc >> 8) ^ data[i]]);
    return crc;
}

Packetizer::Packetizer(FrameConfig config) : _config(config)
{
    MINDFUL_ASSERT(config.sampleBits >= 1 && config.sampleBits <= 16,
                   "sample width must lie in [1, 16] bits");
}

std::vector<std::uint8_t>
Packetizer::pack(std::uint16_t sequence,
                 const std::vector<std::uint32_t> &samples) const
{
    MINDFUL_ASSERT(samples.size() <= 0xFFFF,
                   "at most 65535 samples per frame");
    // One OR over the payload finds any bit above the width; only then
    // does a second walk name the first sample out of range.
    const std::uint32_t cap = (1u << _config.sampleBits) - 1;
    std::uint32_t any = 0;
    for (std::uint32_t s : samples)
        any |= s;
    if (any > cap)
        for (std::uint32_t s : samples)
            MINDFUL_ASSERT(s <= cap, "sample ", s, " exceeds ",
                           _config.sampleBits, "-bit range");

    std::vector<std::uint8_t> frame(frameBits(samples.size()) / 8);
    std::uint8_t *out = frame.data();
    *out++ = syncByte;
    *out++ = static_cast<std::uint8_t>(sequence >> 8);
    *out++ = static_cast<std::uint8_t>(sequence & 0xFF);
    *out++ = static_cast<std::uint8_t>(_config.sampleBits);
    *out++ = static_cast<std::uint8_t>(samples.size() >> 8);
    *out++ = static_cast<std::uint8_t>(samples.size() & 0xFF);

    // MSB-first through an accumulator: each sample lands below the
    // `pending` bits not yet stored, and whole bytes leave from the
    // top. At most 7 + 16 bits are live, so the shifts never lose any.
    const unsigned bits = _config.sampleBits;
    std::uint64_t acc = 0;
    unsigned pending = 0;
    for (std::uint32_t s : samples) {
        acc = (acc << bits) | s;
        pending += bits;
        while (pending >= 8) {
            pending -= 8;
            *out++ = static_cast<std::uint8_t>(acc >> pending);
        }
    }
    if (pending > 0)
        *out++ = static_cast<std::uint8_t>(acc << (8 - pending));

    const std::size_t body = frame.size() - crcBytes;
    const std::uint16_t checksum = crc16(frame.data(), body);
    frame[body] = static_cast<std::uint8_t>(checksum >> 8);
    frame[body + 1] = static_cast<std::uint8_t>(checksum & 0xFF);
    return frame;
}

UnpackedFrame
Packetizer::unpack(const std::vector<std::uint8_t> &frame) const
{
    UnpackedFrame out;
    if (frame.size() < headerBytes + crcBytes || frame[0] != syncByte)
        return out;

    std::uint16_t received_crc = static_cast<std::uint16_t>(
        (frame[frame.size() - 2] << 8) | frame[frame.size() - 1]);
    if (crc16(frame.data(), frame.size() - crcBytes) != received_crc)
        return out;

    out.sequence =
        static_cast<std::uint16_t>((frame[1] << 8) | frame[2]);
    unsigned bits = frame[3];
    std::size_t count = static_cast<std::size_t>((frame[4] << 8) | frame[5]);
    if (bits != _config.sampleBits)
        return out;

    // Validate the declared sample count against the payload region
    // before any allocation: a forged or corrupted count field must
    // not size the sample buffer, and a frame whose payload cannot hold
    // `count` samples is invalid outright.
    const std::size_t payload_bytes =
        frame.size() - headerBytes - crcBytes;
    if (count * static_cast<std::size_t>(bits) > payload_bytes * 8)
        return out;

    // Reads stay inside the payload: the check above bounds the
    // ceil(count * bits / 8) bytes the accumulator consumes.
    const std::uint8_t *in = frame.data() + headerBytes;
    const std::uint32_t mask = (1u << bits) - 1;
    std::uint64_t acc = 0;
    unsigned avail = 0;
    out.samples.resize(count);
    for (std::uint32_t &sample : out.samples) {
        while (avail < bits) {
            acc = (acc << 8) | *in++;
            avail += 8;
        }
        avail -= bits;
        sample = static_cast<std::uint32_t>(acc >> avail) & mask;
    }
    out.valid = true;
    return out;
}

std::size_t
Packetizer::frameBits(std::size_t sample_count) const
{
    std::size_t payload_bits = sample_count * _config.sampleBits;
    std::size_t payload_bytes = (payload_bits + 7) / 8;
    return (headerBytes + payload_bytes + crcBytes) * 8;
}

double
Packetizer::overheadFraction(std::size_t sample_count) const
{
    double total = static_cast<double>(frameBits(sample_count));
    double payload =
        static_cast<double>(sample_count * _config.sampleBits);
    return (total - payload) / total;
}

} // namespace mindful::comm
