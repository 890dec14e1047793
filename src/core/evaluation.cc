#include "evaluation.hh"

#include "util/diag.hh"

namespace cryo::core
{

Evaluator::Evaluator(const tech::Technology &tech, int cores)
    : tech_(tech), builder_(tech, cores)
{
}

SuiteResult
Evaluator::evaluate(const std::vector<sys::SystemDesign> &designs,
                    const std::vector<sys::Workload> &suite,
                    std::size_t baseline_idx) const
{
    fatalIf(designs.empty(), "no designs to evaluate");
    fatalIf(suite.empty(), "no workloads to evaluate");
    fatalIf(baseline_idx >= designs.size(), "baseline index out of range");

    SuiteResult out;
    for (const auto &d : designs)
        out.designs.push_back(d.name);
    for (const auto &w : suite)
        out.workloads.push_back(w.name);

    // Every (workload, design) cell is an independent interval
    // simulation of about a microsecond: a plain loop, since fanning
    // out cells this small costs more than it saves.
    const std::size_t cols = designs.size();
    std::vector<double> tpi(suite.size() * cols); ///< time/instr
    for (std::size_t k = 0; k < tpi.size(); ++k)
        tpi[k] = sim_.run(designs[k % cols], suite[k / cols])
                     .timePerInstr;

    out.perf.assign(suite.size(),
                    std::vector<double>(designs.size(), 0.0));
    for (std::size_t wi = 0; wi < suite.size(); ++wi) {
        const double base_time = tpi[wi * cols + baseline_idx];
        for (std::size_t di = 0; di < cols; ++di)
            out.perf[wi][di] = base_time / tpi[wi * cols + di];
    }

    out.mean.assign(designs.size(), 0.0);
    for (std::size_t di = 0; di < designs.size(); ++di) {
        double sum = 0.0;
        for (std::size_t wi = 0; wi < suite.size(); ++wi)
            sum += out.perf[wi][di];
        out.mean[di] = sum / static_cast<double>(suite.size());
    }
    return out;
}

SuiteResult
Evaluator::parsecComparison() const
{
    // Fig. 23 normalizes to CHP-core (77K, Mesh) - index 1 in the
    // Table-4 order.
    return evaluate(builder_.table4Systems(), sys::parsec21(), 1);
}

SuiteResult
Evaluator::specComparison() const
{
    std::vector<sys::SystemDesign> designs = {
        builder_.baseline300Mesh(),
        builder_.chpMesh77(),
        builder_.cryoSpCryoBus77(1),
        builder_.cryoSpCryoBus77(2),
    };
    // Fig. 24 normalizes to the 300 K baseline.
    return evaluate(designs, sys::specRateAggressivePrefetch(), 0);
}

} // namespace cryo::core
