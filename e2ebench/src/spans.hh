/**
 * @file
 * In-memory span recorder of the benchmark's traced runs.
 *
 * A span is one interval spent inside a layer's public call, recorded
 * from the benchmark's side of the call: name, start, end, the span
 * that caused it, and the operation (pricer call or request) it
 * belongs to.  Spans stay in memory while the workload runs and are
 * written once, at exit, as Chrome trace-event JSON, which Perfetto
 * and chrome://tracing open directly.  A disabled recorder records
 * nothing and every Scope is a no-op, so the untraced run pays one
 * branch per boundary.
 */

#ifndef E2EBENCH_SPANS_HH_
#define E2EBENCH_SPANS_HH_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace e2e {

/** Monotonic host time in nanoseconds. */
std::int64_t nowNs();

/** One recorded interval; see the file comment. */
struct Span
{
    std::string name;
    std::uint64_t id = 0;
    std::uint64_t parent = 0; ///< 0 for a root span
    std::uint64_t op = 0;     ///< operation the span belongs to
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::uint32_t thread = 0;
    std::map<std::string, double> counts; ///< work done inside it
};

/** Thread-safe span sink; see the file comment. */
class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    bool enabled() const { return enabled_; }

    /** A fresh span id (never 0). */
    std::uint64_t nextId() { return next_id_.fetch_add(1); }

    void record(Span span);

    /** Record a finished interval directly (no-op when disabled). */
    void add(const std::string &name, std::uint64_t parent,
             std::uint64_t op, std::int64_t start_ns,
             std::int64_t end_ns,
             std::map<std::string, double> counts = {});

    /** Write every span as Chrome trace-event JSON; false on I/O
     * failure. */
    bool write(const std::string &path) const;

  private:
    const bool enabled_;
    std::atomic<std::uint64_t> next_id_{1};
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

/**
 * RAII span: opens at construction, records at destruction.  The
 * caller may attach counts before it closes.
 */
class Scope
{
  public:
    Scope(Tracer &tracer, const char *name, std::uint64_t parent,
          std::uint64_t op);
    ~Scope();

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    /** This span's id (0 when tracing is off). */
    std::uint64_t id() const { return span_.id; }

    void count(const std::string &key, double value)
    {
        if (tracer_.enabled())
            span_.counts[key] += value;
    }

  private:
    Tracer &tracer_;
    Span span_;
};

} // namespace e2e

#endif // E2EBENCH_SPANS_HH_
