/**
 * @file
 * Shared pieces of the benchmark executable: the spec it runs, the
 * result document it writes, and the two executors.
 *
 * The executable never sees a workload name.  run.py turns
 * (workload, seed, seconds) into a generated spec - a list of cold
 * searches, or a timed request schedule - and this program executes
 * it, checks every output, and writes a result document with raw
 * samples, exact work counters, and (traced runs) a span file.
 * run.py derives the reported metrics from those.
 */

#ifndef E2EBENCH_BENCH_HH_
#define E2EBENCH_BENCH_HH_

#include <cstdint>
#include <string>
#include <vector>

#include "report/json.hh"
#include "spans.hh"

namespace e2e {

namespace report = m3d::report;

/** Command-line inputs of one executor run. */
struct RunArgs
{
    report::Json spec;
    std::string spec_path;
    std::string out_path;   ///< result document
    std::string trace_path; ///< span file; empty = untraced run
    std::string self_exe;   ///< this binary, for the generator child
};

/** Collected outputs of one run; written as the result document. */
struct Result
{
    std::vector<double> setup_s;

    /** Timed operations: latency (ms) and weight. */
    struct Sample
    {
        double ms = 0.0;
        double weight = 1.0;
    };
    std::vector<Sample> samples;

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures; ///< first few, for the log

    /** Deterministic work counts: equal on every run of one spec. */
    report::Json exact = report::Json::object();
    /** Timing-dependent counts and layer figures. */
    report::Json observed = report::Json::object();

    void fail(const std::string &why);
    bool write(const std::string &path, double peak_rss_mb) const;
};

/** Spec accessors with defaults (the spec is generated, not typed). */
std::uint64_t specUint(const report::Json &j, const std::string &key,
                       std::uint64_t fallback);
double specNumber(const report::Json &j, const std::string &key,
                  double fallback);
std::string specString(const report::Json &j, const std::string &key,
                       const std::string &fallback);

/** Parse the JSON document at `path`; false + *error on failure. */
bool readJson(const std::string &path, report::Json *out,
              std::string *error);

/** 64-bit FNV-1a of `bytes`, as 16 hex digits. */
std::string digest(const std::string &bytes);

/** Peak resident set (VmHWM) of this process in MiB. */
double peakRssMb();

int searchMain(const RunArgs &args);
int daemonMain(const RunArgs &args);
int generatorMain(const std::string &spec_path,
                  const std::string &socket_path,
                  const std::string &out_path);

} // namespace e2e

#endif // E2EBENCH_BENCH_HH_
