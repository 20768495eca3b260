#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <unordered_map>
#include <utility>

namespace perfbench {

void SpanRecorder::Add(Span span) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(span));
}

std::uint64_t SpanRecorder::Add(const std::string& name, std::int64_t start_ns,
                                std::int64_t end_ns, std::uint64_t parent,
                                std::uint64_t request) {
    Span span;
    span.id = NewId();
    span.parent = parent;
    span.request = request;
    span.name = name;
    span.start_ns = start_ns;
    span.end_ns = end_ns;
    const std::uint64_t id = span.id;
    Add(std::move(span));
    return id;
}

std::vector<Span> SpanRecorder::spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
}

ScopedSpan::ScopedSpan(SpanRecorder* recorder, const char* name,
                       std::uint64_t parent, std::uint64_t request)
    : recorder_(recorder) {
    if (recorder_ == nullptr) return;
    span_.id = recorder_->NewId();
    span_.parent = parent;
    span_.request = request;
    span_.name = name;
    span_.start_ns = NowNs();
}

ScopedSpan::~ScopedSpan() {
    if (recorder_ == nullptr) return;
    span_.end_ns = NowNs();
    recorder_->Add(std::move(span_));
}

std::vector<double> SelfTimesNs(const std::vector<Span>& spans) {
    std::unordered_map<std::uint64_t, std::size_t> index_of;
    for (std::size_t i = 0; i < spans.size(); ++i) index_of[spans[i].id] = i;
    // Children's intervals, clipped to their parent.
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> covered(
        spans.size());
    for (const Span& child : spans) {
        if (child.parent == 0) continue;
        const auto it = index_of.find(child.parent);
        if (it == index_of.end()) continue;
        const Span& parent = spans[it->second];
        const std::int64_t begin = std::max(child.start_ns, parent.start_ns);
        const std::int64_t end = std::min(child.end_ns, parent.end_ns);
        if (end > begin) covered[it->second].emplace_back(begin, end);
    }
    std::vector<double> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        auto& intervals = covered[i];
        std::sort(intervals.begin(), intervals.end());
        // Length of the union of the children's intervals.
        std::int64_t union_ns = 0;
        std::int64_t run_begin = 0;
        std::int64_t run_end = 0;
        bool open = false;
        for (const auto& [begin, end] : intervals) {
            if (open && begin <= run_end) {
                run_end = std::max(run_end, end);
                continue;
            }
            if (open) union_ns += run_end - run_begin;
            run_begin = begin;
            run_end = end;
            open = true;
        }
        if (open) union_ns += run_end - run_begin;
        self[i] = static_cast<double>(spans[i].end_ns - spans[i].start_ns -
                                      union_ns);
    }
    return self;
}

std::vector<double> SelfTimePerRequestNs(const std::vector<Span>& spans,
                                         const std::vector<double>& self_ns,
                                         const std::string& name) {
    std::map<std::uint64_t, double> per_request;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        if (spans[i].name == name) per_request[spans[i].request] += self_ns[i];
    }
    std::vector<double> out;
    out.reserve(per_request.size());
    for (const auto& entry : per_request) out.push_back(entry.second);
    return out;
}

bool WriteChromeTrace(const std::vector<Span>& spans,
                      const std::string& path) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::int64_t origin = 0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        if (i == 0 || spans[i].start_ns < origin) origin = spans[i].start_ns;
    }
    std::fprintf(f, "{\"traceEvents\":[\n");
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        std::fprintf(f,
                     "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%llu,"
                     "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                     "\"parent\":%llu,\"request\":%llu}}\n",
                     i == 0 ? "" : ",", s.name.c_str(),
                     static_cast<unsigned long long>(s.request),
                     static_cast<double>(s.start_ns - origin) / 1e3,
                     static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                     static_cast<unsigned long long>(s.id),
                     static_cast<unsigned long long>(s.parent),
                     static_cast<unsigned long long>(s.request));
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
}

}  // namespace perfbench
