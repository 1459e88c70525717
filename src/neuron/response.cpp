#include "neuron/response.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace st {

ResponseFunction::ResponseFunction(std::vector<Amp> samples)
    : samples_(std::move(samples))
{
    trim();
}

void
ResponseFunction::trim()
{
    // Canonical form: the last sample is the first point of the flat
    // tail, so drop trailing repeats (and a flat-zero response is empty).
    while (samples_.size() >= 2 &&
           samples_.back() == samples_[samples_.size() - 2]) {
        samples_.pop_back();
    }
    if (samples_.size() == 1 && samples_[0] == 0)
        samples_.clear();
}

ResponseFunction
ResponseFunction::biexponential(Amp peak, double tau_slow, double tau_fast)
{
    if (tau_fast >= tau_slow) {
        throw std::invalid_argument("biexponential: tau_fast must be < "
                                    "tau_slow");
    }
    if (peak == 0)
        return ResponseFunction();
    // Continuous peak of exp(-t/ts) - exp(-t/tf) occurs at
    // t* = ln(ts/tf) * ts*tf / (ts - tf).
    double ts = tau_slow, tf = tau_fast;
    double t_star = std::log(ts / tf) * ts * tf / (ts - tf);
    double curve_peak = std::exp(-t_star / ts) - std::exp(-t_star / tf);
    double scale = static_cast<double>(std::abs(peak)) / curve_peak;
    double sign = peak > 0 ? 1.0 : -1.0;

    std::vector<Amp> samples;
    for (Time::rep t = 0;; ++t) {
        double td = static_cast<double>(t);
        double v = scale * (std::exp(-td / ts) - std::exp(-td / tf));
        Amp q = static_cast<Amp>(sign * std::llround(v));
        samples.push_back(q);
        // Stop once decayed to 0 past the peak; the envelope is
        // monotonically decreasing after t*, so 0 here means 0 forever.
        if (q == 0 && td > t_star)
            break;
        if (t > 1u << 20)
            throw std::logic_error("biexponential: failed to decay");
    }
    return ResponseFunction(std::move(samples));
}

ResponseFunction
ResponseFunction::piecewiseLinear(Amp peak, Time::rep rise, Time::rep fall)
{
    if (rise == 0 || fall == 0)
        throw std::invalid_argument("piecewiseLinear: rise/fall must be "
                                    ">= 1");
    if (peak == 0)
        return ResponseFunction();
    std::vector<Amp> samples;
    double p = static_cast<double>(peak);
    for (Time::rep t = 0; t <= rise; ++t) {
        samples.push_back(static_cast<Amp>(
            std::llround(p * static_cast<double>(t) /
                         static_cast<double>(rise))));
    }
    for (Time::rep t = 1; t <= fall; ++t) {
        samples.push_back(static_cast<Amp>(
            std::llround(p * static_cast<double>(fall - t) /
                         static_cast<double>(fall))));
    }
    return ResponseFunction(std::move(samples));
}

ResponseFunction
ResponseFunction::step(Amp weight, Time::rep at)
{
    if (weight == 0)
        return ResponseFunction();
    std::vector<Amp> samples(at + 1, 0);
    samples[at] = weight;
    return ResponseFunction(std::move(samples));
}

ResponseFunction::Amp
ResponseFunction::at(Time::rep t) const
{
    if (samples_.empty())
        return 0;
    if (t >= samples_.size())
        return samples_.back();
    return samples_[t];
}

Time::rep
ResponseFunction::tMax() const
{
    return samples_.empty() ? 0 : samples_.size() - 1;
}

ResponseFunction::Amp
ResponseFunction::finalValue() const
{
    return samples_.empty() ? 0 : samples_.back();
}

ResponseFunction::Amp
ResponseFunction::peak() const
{
    Amp m = 0;
    for (Amp a : samples_)
        m = std::max(m, a);
    return m;
}

ResponseFunction::Amp
ResponseFunction::trough() const
{
    Amp m = 0;
    for (Amp a : samples_)
        m = std::min(m, a);
    return m;
}

bool
ResponseFunction::isZero() const
{
    return samples_.empty();
}

std::vector<ResponseFunction::Step>
ResponseFunction::steps() const
{
    std::vector<Step> jumps;
    Amp prev = 0;
    for (size_t t = 0; t < samples_.size(); ++t) {
        if (samples_[t] != prev)
            jumps.push_back({t, samples_[t] - prev});
        prev = samples_[t];
    }
    return jumps;
}

std::vector<Time::rep>
ResponseFunction::upSteps() const
{
    std::vector<Time::rep> ups;
    for (const Step &s : steps())
        for (Amp d = s.delta; d > 0; --d)
            ups.push_back(s.offset);
    return ups;
}

std::vector<Time::rep>
ResponseFunction::downSteps() const
{
    std::vector<Time::rep> downs;
    for (const Step &s : steps())
        for (Amp d = -s.delta; d > 0; --d)
            downs.push_back(s.offset);
    return downs;
}

ResponseFunction
ResponseFunction::negated() const
{
    std::vector<Amp> samples = samples_;
    for (Amp &a : samples)
        a = -a;
    return ResponseFunction(std::move(samples));
}

ResponseFunction
ResponseFunction::plus(const ResponseFunction &other) const
{
    size_t n = std::max(samples_.size(), other.samples_.size());
    std::vector<Amp> samples(n);
    for (size_t t = 0; t < n; ++t)
        samples[t] = at(t) + other.at(t);
    return ResponseFunction(std::move(samples));
}

} // namespace st
