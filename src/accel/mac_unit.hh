/**
 * @file
 * Post-synthesis MAC-unit parameters (paper Sec. 5.3 "Results").
 *
 * The paper synthesizes a single 8-bit MAC unit and uses its latency
 * t_MAC and power P_MAC directly in the lower-bound equations:
 *
 *   - NanGate 45 nm @ 100 MHz: t_MAC = 2 ns, P_MAC = 0.05 mW
 *   - 12 nm (technology-scaling optimization): t_MAC = 1 ns,
 *     P_MAC = 0.026 mW
 *
 * The Fig. 9 accelerator synthesis study (TSMC 130 nm) has its own
 * per-component coefficients in SynthesisModel, not a MacUnitParams.
 */

#ifndef MINDFUL_ACCEL_MAC_UNIT_HH
#define MINDFUL_ACCEL_MAC_UNIT_HH

#include <string>

#include "base/units.hh"

namespace mindful::accel {

/** Synthesized characteristics of one MAC unit. */
struct MacUnitParams
{
    std::string technology = "nangate45";

    /** Time to execute one multiply-accumulate step. */
    Time macTime = Time::nanoseconds(2.0);

    /** Power of one active MAC unit. */
    Power macPower = Power::milliwatts(0.05);

    /** Energy of one MAC step. */
    Energy
    energyPerMac() const
    {
        return macPower * macTime;
    }
};

/** The paper's 45 nm NanGate numbers (default evaluation node). */
MacUnitParams nangate45();

/** The paper's 12 nm numbers (technology-scaling optimization). */
MacUnitParams scaled12nm();

} // namespace mindful::accel

#endif // MINDFUL_ACCEL_MAC_UNIT_HH
