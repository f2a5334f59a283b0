/**
 * @file
 * Fixed-size POD trace event, plus the helpers every by-name telemetry
 * macro shares.
 *
 * A span records one PodEvent into its thread's SPSC ring
 * (obs/ring.hh): no allocation, no lock, no string. The name is an
 * interned TraceSite id (obs/collector.hh) and the arguments are a
 * fixed set of key/number slots whose keys point at string literals;
 * the background collector resolves both while streaming Chrome
 * trace_event JSON.
 */

#ifndef MINDFUL_OBS_EVENT_HH
#define MINDFUL_OBS_EVENT_HH

#include <cstddef>
#include <cstdint>
#include <type_traits>

namespace mindful::obs {

/** Argument slots per span; args attached beyond this are ignored. */
constexpr std::size_t kSpanArgSlots = 4;

/**
 * One trace record: a complete ("ph":"X") span. Plain data with no
 * default member initializers, so a ring's slot array stays untouched
 * (and out of the resident set) until spans are actually recorded.
 */
struct PodEvent
{
    /** How an argument slot's 64 bits are to be read. */
    enum ArgType : std::uint8_t {
        kUnsigned = 0,
        kSigned = 1,
        kDouble = 2,
    };

    std::uint64_t startNanos; //!< since the process trace epoch
    std::uint64_t durationNanos;
    std::uint32_t siteId;
    std::uint8_t argCount;
    std::uint8_t argTypes[kSpanArgSlots];
    const char *argKeys[kSpanArgSlots]; //!< string literals
    std::uint64_t argBits[kSpanArgSlots];
};

/** Monotonic nanoseconds since the process trace epoch. */
std::uint64_t traceNowNanos();

/** Dense per-process id of the calling thread, stable for its life. */
std::uint32_t currentThreadId();

namespace detail {

/** Whether a by-name macro's name is a string literal (char array). */
template <typename Name>
inline constexpr bool kConstantName =
    std::is_array_v<std::remove_reference_t<Name>>;

} // namespace detail

} // namespace mindful::obs

#define MINDFUL_OBS_CONCAT_INNER(a, b) a##b
#define MINDFUL_OBS_CONCAT(a, b) MINDFUL_OBS_CONCAT_INNER(a, b)

/**
 * Resolve a by-name telemetry site. The resolving expression runs once
 * per macro expansion when @p name is a string literal (the result is
 * kept in a function-local static), and on every call when the name
 * is built at run time (std::string, const char *). Expands to an
 * expression; @p name is evaluated only when the expression is.
 */
#define MINDFUL_OBS_RESOLVE(name, ...) \
    [&]() -> decltype(auto) { \
        if constexpr (::mindful::obs::detail::kConstantName< \
                          decltype((name))>) { \
            [[maybe_unused]] static decltype(auto) _mindful_resolved = \
                (__VA_ARGS__); \
            return _mindful_resolved; \
        } else { \
            return (__VA_ARGS__); \
        } \
    }()

#endif // MINDFUL_OBS_EVENT_HH
