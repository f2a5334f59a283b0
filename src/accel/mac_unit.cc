#include "accel/mac_unit.hh"

namespace mindful::accel {

MacUnitParams
nangate45()
{
    return {"nangate45", Time::nanoseconds(2.0), Power::milliwatts(0.05)};
}

MacUnitParams
scaled12nm()
{
    return {"12nm", Time::nanoseconds(1.0), Power::milliwatts(0.026)};
}

} // namespace mindful::accel
