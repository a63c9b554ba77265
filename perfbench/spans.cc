#include "spans.hh"

#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace perfbench
{

double
SpanLog::now() const
{
    return std::chrono::duration<double>(Clock::now() - origin_).count();
}

int
SpanLog::open(std::string name)
{
    Span s;
    s.name = std::move(name);
    s.parent = open_.empty() ? -1 : open_.back();
    s.startS = now();
    spans_.push_back(std::move(s));
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
}

void
SpanLog::close(int id)
{
    if (open_.empty() || open_.back() != id)
        throw std::logic_error("span closed out of order");
    spans_[id].endS = now();
    open_.pop_back();
}

double
SpanLog::seconds(int id) const
{
    return spans_[id].endS - spans_[id].startS;
}

double
SpanLog::selfSeconds(int id) const
{
    double self = seconds(id);
    for (std::size_t i = static_cast<std::size_t>(id) + 1;
         i < spans_.size(); ++i)
        if (spans_[i].parent == id)
            self -= seconds(static_cast<int>(i));
    return self;
}

bool
SpanLog::writeJson(const std::string &path) const
{
    std::ofstream os(path);
    if (!os)
        return false;
    os << "[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      "\"parent\": %d, \"start_s\": %.9f, "
                      "\"end_s\": %.9f, \"self_s\": %.9f}",
                      s.parent, s.startS, s.endS,
                      selfSeconds(static_cast<int>(i)));
        os << "  {\"name\": \"" << s.name << "\", " << buf
           << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    os << "]\n";
    return static_cast<bool>(os);
}

} // namespace perfbench
