#include "trace.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <unordered_map>

namespace repobench
{

namespace
{

thread_local uint64_t tl_open_span = 0;
std::atomic<uint32_t> g_next_tid{0};

} // namespace

uint32_t
threadIndex()
{
    thread_local uint32_t tid = ++g_next_tid;
    return tid;
}

Tracer *Tracer::active_ = nullptr;

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

void
Tracer::record(const SpanRecord &s)
{
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(s);
}

std::map<std::string, double>
Tracer::selfSeconds() const
{
    // Children run on their parent's thread and strictly inside it,
    // one after another, so their durations sum to the covered part.
    std::unordered_map<uint64_t, double> covered;
    for (const SpanRecord &s : spans_) {
        if (s.parent != 0)
            covered[s.parent] += s.t1 - s.t0;
    }
    std::map<std::string, double> self;
    for (const SpanRecord &s : spans_) {
        auto it = covered.find(s.id);
        double kids = it == covered.end() ? 0.0 : it->second;
        self[s.name] += (s.t1 - s.t0) - kids;
    }
    return self;
}

bool
Tracer::writeChromeJson(const std::string &path,
                        const std::string &metadata_json) const
{
    FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    double origin = spans_.empty() ? 0.0 : spans_.front().t0;
    for (const SpanRecord &s : spans_)
        origin = std::min(origin, s.t0);
    std::fprintf(f, "{\"otherData\": %s,\n\"traceEvents\": [\n",
                 metadata_json.c_str());
    for (size_t i = 0; i < spans_.size(); ++i) {
        const SpanRecord &s = spans_[i];
        std::fprintf(f,
                     "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                     "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{"
                     "\"op\":%llu,\"id\":%llu,\"parent\":%llu}}%s\n",
                     s.name, s.tid, (s.t0 - origin) * 1e6,
                     (s.t1 - s.t0) * 1e6, (unsigned long long)s.op,
                     (unsigned long long)s.id,
                     (unsigned long long)s.parent,
                     i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
}

Span::Span(const char *name, uint64_t op) : tracer_(Tracer::active())
{
    if (!tracer_)
        return;
    rec_.name = name;
    rec_.op = op;
    rec_.id = tracer_->nextId();
    rec_.parent = tl_open_span;
    rec_.tid = threadIndex();
    tl_open_span = rec_.id;
    rec_.t0 = nowSeconds();
}

Span::~Span()
{
    if (!tracer_)
        return;
    rec_.t1 = nowSeconds();
    tl_open_span = rec_.parent;
    tracer_->record(rec_);
}

} // namespace repobench
