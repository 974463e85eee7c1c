#include "obs/trace.hh"

#include <ostream>
#include <sstream>

#include "common/logging.hh"
#include "obs/json.hh"
#include "obs/profile.hh"

namespace vsgpu::obs
{

std::atomic<std::uint32_t> traceMask{0};

namespace
{

std::atomic<std::uint32_t> nextThreadId{0};

} // namespace

std::uint32_t
parseTraceCategories(const std::string &csv)
{
    if (csv.empty() || csv == "all")
        return CatAll;
    std::uint32_t mask = 0;
    std::istringstream is(csv);
    std::string token;
    while (std::getline(is, token, ',')) {
        if (token == "phase")
            mask |= CatPhase;
        else if (token == "pool")
            mask |= CatPool;
        else if (token == "ctl")
            mask |= CatCtl;
        else if (token == "hv")
            mask |= CatHv;
        else
            panic("unknown trace category '", token,
                  "' (want phase, pool, ctl, hv, or all)");
    }
    return mask;
}

const char *
traceCategoryName(std::uint32_t cat)
{
    switch (cat) {
      case CatPhase: return "phase";
      case CatPool:  return "pool";
      case CatCtl:   return "ctl";
      case CatHv:    return "hv";
    }
    return "?";
}

Tracer &
Tracer::instance()
{
    static Tracer tracer;
    return tracer;
}

void
Tracer::enable(std::uint32_t mask)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        originNs_ = profileNowNs();
    }
    traceMask.store(mask, std::memory_order_relaxed);
}

void
Tracer::disable()
{
    traceMask.store(0, std::memory_order_relaxed);
}

double
Tracer::nowUs() const
{
    return static_cast<double>(profileNowNs() - originNs_) * 1e-3;
}

std::uint32_t
Tracer::threadId()
{
    thread_local const std::uint32_t id =
        nextThreadId.fetch_add(1, std::memory_order_relaxed);
    return id;
}

void
Tracer::push(TraceEvent event)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (events_.size() < maxEvents()) {
        events_.push_back(std::move(event));
        return;
    }
    // Ring semantics: keep the most recent maxEvents() events by
    // overwriting the oldest; the tail of a long run is worth more
    // than its start.
    warn_once("trace buffer full (", maxEvents(),
              " events); evicting oldest events");
    events_[head_] = std::move(event);
    head_ = (head_ + 1) % maxEvents();
    ++dropped_;
}

void
Tracer::complete(
    std::uint32_t cat, const char *name, double tsUs, double durUs,
    std::vector<std::pair<std::string, std::string>> args)
{
    TraceEvent e;
    e.phase = 'X';
    e.cat = cat;
    e.name = name;
    e.tid = threadId();
    e.tsUs = tsUs;
    e.durUs = durUs;
    e.args = std::move(args);
    push(std::move(e));
}

void
Tracer::instant(
    std::uint32_t cat, const char *name,
    std::vector<std::pair<std::string, std::string>> args)
{
    TraceEvent e;
    e.phase = 'i';
    e.cat = cat;
    e.name = name;
    e.tid = threadId();
    e.tsUs = nowUs();
    e.args = std::move(args);
    push(std::move(e));
}

std::size_t
Tracer::numEvents() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return events_.size();
}

std::vector<TraceEvent>
Tracer::events() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (head_ == 0)
        return events_;
    // Unroll the ring: oldest surviving event first.
    std::vector<TraceEvent> out;
    out.reserve(events_.size());
    for (std::size_t i = 0; i < events_.size(); ++i)
        out.push_back(events_[(head_ + i) % events_.size()]);
    return out;
}

std::uint64_t
Tracer::droppedEvents() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return dropped_;
}

void
Tracer::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    events_.clear();
    head_ = 0;
    dropped_ = 0;
}

void
Tracer::writeJson(std::ostream &os) const
{
    const std::vector<TraceEvent> snapshot = events();
    os << "{\n  \"displayTimeUnit\": \"ms\",\n"
       << "  \"traceEvents\": [";
    for (std::size_t i = 0; i < snapshot.size(); ++i) {
        const TraceEvent &e = snapshot[i];
        os << (i ? ",\n" : "\n") << "    {\"ph\": \"" << e.phase
           << "\", \"cat\": \"" << traceCategoryName(e.cat)
           << "\", \"name\": " << jsonQuote(e.name)
           << ", \"pid\": 1, \"tid\": " << e.tid
           << ", \"ts\": " << e.tsUs;
        if (e.phase == 'X')
            os << ", \"dur\": " << e.durUs;
        if (e.phase == 'i')
            os << ", \"s\": \"t\"";
        if (!e.args.empty()) {
            os << ", \"args\": {";
            for (std::size_t a = 0; a < e.args.size(); ++a) {
                os << (a ? ", " : "") << jsonQuote(e.args[a].first)
                   << ": " << jsonQuote(e.args[a].second);
            }
            os << "}";
        }
        os << "}";
    }
    os << "\n  ]\n}\n";
}

} // namespace vsgpu::obs
