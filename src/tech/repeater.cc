#include "repeater.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/diag.hh"

namespace cryo::tech
{

using units::Farad;
using units::FaradPerMetre;
using units::Kelvin;
using units::Metre;
using units::Ohm;
using units::OhmPerMetre;
using units::Second;

RepeateredWire::RepeateredWire(const WireSpec &spec, const Mosfet &mosfet)
    : spec_(spec), mosfet_(mosfet)
{
}

double
RepeateredWire::optimalSize(Metre seg_len, Kelvin temp,
                            const VoltagePoint &v) const
{
    // d(t_seg)/dh = 0 => h = sqrt(R0 c l / (r l C0)) = sqrt(R0 c / (r C0)).
    const Ohm r0 = mosfet_.driverResistance(temp, v, 1.0);
    const Farad c0 = mosfet_.gateCap(1.0);
    const OhmPerMetre r = spec_.resistancePerM(temp);
    const FaradPerMetre c = spec_.capPerM();
    (void)seg_len; // h is independent of l in the Elmore form
    return std::max(1.0, std::sqrt(r0 * c / (r * c0)));
}

Second
RepeateredWire::designDelay(Metre length, int k, double h, Kelvin temp,
                            const VoltagePoint &v) const
{
    const Metre l = length / k;
    const Ohm rd = mosfet_.driverResistance(temp, v, h);
    const Farad cw = spec_.capPerM() * l;
    const Ohm rw = spec_.resistancePerM(temp) * l;
    const Farad cg = mosfet_.gateCap(h);
    const Farad cp = mosfet_.parasiticCap(h);
    const Second t_seg = 0.69 * rd * (cw + cg + cp)
        + 0.38 * rw * cw + 0.69 * rw * cg;
    return k * t_seg;
}

RepeaterDesign
RepeateredWire::optimize(Metre length, Kelvin temp, const VoltagePoint &v,
                         int max_segments) const
{
    fatalIf(length.value() <= 0.0, "wire length must be positive");
    fatalIf(max_segments < 1, "need at least one segment");

    RepeaterDesign best{
        1, 1.0, Second{std::numeric_limits<double>::infinity()}, length};
    // The continuous-k optimum gives the neighbourhood to scan.
    const Ohm r0 = mosfet_.driverResistance(temp, v, 1.0);
    const Farad c0 = mosfet_.gateCap(1.0) + mosfet_.parasiticCap(1.0);
    const OhmPerMetre r = spec_.resistancePerM(temp);
    const FaradPerMetre c = spec_.capPerM();
    const double k_cont =
        length.value() * std::sqrt(0.38 * (r * c).value()
                                   / (0.69 * (r0 * c0).value()));
    const int k_hi = std::min<int>(
        max_segments, std::max(2, static_cast<int>(std::ceil(k_cont)) + 2));

    for (int k = 1; k <= k_hi; ++k) {
        const double h = optimalSize(length / k, temp, v);
        const Second d = designDelay(length, k, h, temp, v);
        if (d < best.delay)
            best = {k, h, d, length / k};
    }
    return best;
}

RepeaterDesign
RepeateredWire::optimize(Metre length, Kelvin temp) const
{
    return optimize(length, temp, mosfet_.params().nominal);
}

Second
RepeateredWire::delay(Metre length, Kelvin temp) const
{
    return optimize(length, temp).delay;
}

double
RepeateredWire::speedup(Metre length, Kelvin temp) const
{
    return delay(length, constants::roomTemp) / delay(length, temp);
}

Second
RepeateredWire::delayWithFrozenLayout(Metre length, Kelvin design_temp,
                                      Kelvin temp) const
{
    const RepeaterDesign d = optimize(length, design_temp);
    return designDelay(length, d.segments, d.size, temp,
                       mosfet_.params().nominal);
}

} // namespace cryo::tech
