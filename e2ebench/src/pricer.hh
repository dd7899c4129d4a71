/**
 * @file
 * The traced pricer and the objective checks shared by both
 * executors.
 *
 * TracedPricer runs the stages of ObjectiveEvaluator::evaluateBatch
 * one by one through their public calls - decodeCore, the memo
 * lookup, Evaluator::submit, PowerModel::blockPower and
 * ThermalModel::solveMany - with a span around each, and plugs into
 * runSearch() through the BatchPricer seam.  Its objective vectors
 * must be bit-identical to the production pricer's; every traced run
 * checks that through the search document's digest.
 */

#ifndef E2EBENCH_PRICER_HH_
#define E2EBENCH_PRICER_HH_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "engine/evaluator.hh"
#include "search/design_point.hh"
#include "search/objectives.hh"
#include "search/strategy.hh"
#include "spans.hh"

namespace e2e {

/** Work counts of one priced phase. */
struct Work
{
    std::uint64_t pricer_calls = 0;
    std::uint64_t designs_priced = 0;   ///< pricer outputs
    std::uint64_t designs_computed = 0; ///< objective-memo misses
    std::uint64_t memo_hits = 0;
    std::uint64_t thermal_solves = 0;
    std::uint64_t thermal_sweeps = 0;
    std::uint64_t unconverged = 0;
    std::uint64_t ipc_violations = 0;
};

/** The physical-range check of one priced objective vector: positive
 * finite frequency and EPI, peak temperature above ambient, yield in
 * [0, 1].  False with *why on a violation. */
bool objectiveInRange(const m3d::search::Objectives &o, std::string *why);

/** ObjectiveEvaluator's pricing stages under spans; see the file
 * comment.  `apps` must be the ObjectiveConfig's resolved mix. */
class TracedPricer
{
  public:
    TracedPricer(m3d::engine::Evaluator &ev,
                 const m3d::search::SearchSpace &space,
                 std::vector<m3d::WorkloadProfile> apps, int grid,
                 Tracer &tracer, std::uint64_t parent);

    TracedPricer(const TracedPricer &) = delete;
    TracedPricer &operator=(const TracedPricer &) = delete;

    const Work &work() const { return work_; }

    /** The BatchPricer call; see search/strategy.hh. */
    std::vector<m3d::search::Objectives>
    price(const std::vector<m3d::search::Point> &pts,
          const std::function<void(std::size_t,
                                   const m3d::search::Objectives &)>
              &hook);

    /** This pricer as a BatchPricer (borrows *this). */
    m3d::search::BatchPricer pricer();

  private:
    m3d::engine::Evaluator &ev_;
    const m3d::search::SearchSpace &space_;
    const std::vector<m3d::WorkloadProfile> apps_;
    const int grid_;
    Tracer &tracer_;
    const std::uint64_t parent_;
    std::map<m3d::search::Point, m3d::search::Objectives> memo_;
    Work work_;
};

} // namespace e2e

#endif // E2EBENCH_PRICER_HH_
