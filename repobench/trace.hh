/**
 * @file
 * In-memory span recorder for the repo benchmark's traced runs.
 *
 * A span is one call from the benchmark into the library (planApp,
 * lowerDag, MappedApp::run, a fleet hook, ...): name, start, end, the
 * span that was open on the same thread when it began (its parent)
 * and the op it belongs to. Spans stay in memory and are written once
 * at exit as Chrome trace-event JSON. With no tracer installed every
 * Span is a no-op, so the untraced run pays one pointer test per call.
 */

#ifndef REPOBENCH_TRACE_HH
#define REPOBENCH_TRACE_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace repobench
{

/** Seconds on the steady clock. */
double nowSeconds();

/** A small per-thread index (the "tid" of the trace events). */
uint32_t threadIndex();

struct SpanRecord
{
    const char *name = "";
    double t0 = 0;
    double t1 = 0;
    uint64_t id = 0;
    uint64_t parent = 0; //!< 0 = root
    uint64_t op = 0;
    uint32_t tid = 0;
};

class Tracer
{
  public:
    /** The installed tracer, or nullptr in an untraced run. */
    static Tracer *active() { return active_; }
    static void install(Tracer *t) { active_ = t; }

    uint64_t nextId() { return ++next_id_; }
    void record(const SpanRecord &s);

    /**
     * Self time per span name, summed over every recorded span: a
     * span's duration minus the part its child spans cover. Call
     * after all workers have stopped.
     */
    std::map<std::string, double> selfSeconds() const;

    /** Write the spans as Chrome trace-event JSON; false on error. */
    bool writeChromeJson(const std::string &path,
                         const std::string &metadata_json) const;

  private:
    static Tracer *active_;
    std::atomic<uint64_t> next_id_{0};
    std::mutex mu_;
    std::vector<SpanRecord> spans_; //!< guarded by mu_
};

/** RAII span around one call; no-op without an installed tracer. */
class Span
{
  public:
    Span(const char *name, uint64_t op);
    ~Span();
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Tracer *tracer_;
    SpanRecord rec_;
};

/** Run @p f inside a span named @p name of op @p op. */
template <typename F>
auto
traced(const char *name, uint64_t op, F &&f)
{
    Span s(name, op);
    return std::forward<F>(f)();
}

} // namespace repobench

#endif // REPOBENCH_TRACE_HH
