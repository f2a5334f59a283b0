#include "comm/packetizer.hh"

#include <array>

#include "base/logging.hh"

namespace mindful::comm {

namespace {

/** Byte-at-a-time lookup table of CRC-16/CCITT-FALSE (poly 0x1021). */
constexpr std::array<std::uint16_t, 256>
makeCrcTable()
{
    std::array<std::uint16_t, 256> table{};
    for (unsigned byte = 0; byte < 256; ++byte) {
        auto crc = static_cast<std::uint16_t>(byte << 8);
        for (int bit = 0; bit < 8; ++bit) {
            if (crc & 0x8000)
                crc = static_cast<std::uint16_t>((crc << 1) ^ 0x1021);
            else
                crc = static_cast<std::uint16_t>(crc << 1);
        }
        table[byte] = crc;
    }
    return table;
}

constexpr std::array<std::uint16_t, 256> kCrcTable = makeCrcTable();

} // namespace

std::uint16_t
crc16(const std::uint8_t *data, std::size_t size)
{
    std::uint16_t crc = 0xFFFF;
    for (std::size_t i = 0; i < size; ++i)
        crc = static_cast<std::uint16_t>(
            (crc << 8) ^ kCrcTable[(crc >> 8) ^ data[i]]);
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
    const std::uint32_t cap = (1u << _config.sampleBits) - 1;
    for (std::uint32_t s : samples)
        MINDFUL_ASSERT(s <= cap, "sample ", s, " exceeds ",
                       _config.sampleBits, "-bit range");

    std::vector<std::uint8_t> frame;
    frame.reserve(frameBits(samples.size()) / 8);
    frame.push_back(syncByte);
    frame.push_back(static_cast<std::uint8_t>(sequence >> 8));
    frame.push_back(static_cast<std::uint8_t>(sequence & 0xFF));
    frame.push_back(static_cast<std::uint8_t>(_config.sampleBits));
    frame.push_back(static_cast<std::uint8_t>(samples.size() >> 8));
    frame.push_back(static_cast<std::uint8_t>(samples.size() & 0xFF));

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
            frame.push_back(static_cast<std::uint8_t>(acc >> pending));
        }
    }
    if (pending > 0)
        frame.push_back(static_cast<std::uint8_t>(acc << (8 - pending)));

    std::uint16_t checksum = crc16(frame.data(), frame.size());
    frame.push_back(static_cast<std::uint8_t>(checksum >> 8));
    frame.push_back(static_cast<std::uint8_t>(checksum & 0xFF));
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
