#include "spans.hpp"

#include <cstdio>

namespace perfbench {

namespace {

std::int64_t ns_since(std::chrono::steady_clock::time_point origin) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin)
      .count();
}

}  // namespace

SpanLog::SpanLog() : origin_(std::chrono::steady_clock::now()) {}

void SpanLog::begin_run(const std::string& label) { runs_.push_back(label); }

int SpanLog::intern(const char* name) {
  for (const auto& [ptr, id] : literal_ids_) {
    if (ptr == name) {
      return id;
    }
  }
  int id = static_cast<int>(names_.size());
  const auto it = name_ids_.find(name);
  if (it != name_ids_.end()) {
    id = it->second;
  } else {
    names_.emplace_back(name);
    name_ids_.emplace(name, id);
  }
  literal_ids_.emplace_back(name, id);
  return id;
}

int SpanLog::open(const char* name) {
  SpanRecord s;
  s.name = intern(name);
  s.parent = open_.empty() ? -1 : open_.back();
  s.run = static_cast<int>(runs_.size()) - 1;
  const int index = static_cast<int>(spans_.size());
  open_.push_back(index);
  s.start_ns = ns_since(origin_);
  spans_.push_back(s);
  return index;
}

void SpanLog::close(int index) {
  spans_[static_cast<std::size_t>(index)].end_ns = ns_since(origin_);
  open_.pop_back();
}

std::vector<double> SpanLog::durations(const std::string& name) const {
  std::vector<double> out;
  const auto it = name_ids_.find(name);
  if (it == name_ids_.end()) {
    return out;
  }
  for (const SpanRecord& s : spans_) {
    if (s.name == it->second) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns));
    }
  }
  return out;
}

std::map<std::string, double> SpanLog::self_ns_by_layer() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
  }
  for (const SpanRecord& s : spans_) {
    if (s.parent >= 0) {
      self[static_cast<std::size_t>(s.parent)] -=
          static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const std::string& name =
        names_[static_cast<std::size_t>(spans_[i].name)];
    out[name.substr(0, name.find('.'))] += self[i];
  }
  return out;
}

std::vector<double> SpanLog::child_ns_per_parent(
    const std::string& parent, const std::string& child) const {
  const auto p = name_ids_.find(parent);
  const auto c = name_ids_.find(child);
  std::vector<double> out;
  if (p == name_ids_.end()) {
    return out;
  }
  std::map<int, std::size_t> slot;  // parent span index -> out position
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == p->second) {
      slot[static_cast<int>(i)] = out.size();
      out.push_back(0.0);
    }
  }
  if (c == name_ids_.end()) {
    return out;
  }
  for (const SpanRecord& s : spans_) {
    if (s.name != c->second) {
      continue;
    }
    const auto it = slot.find(s.parent);
    if (it != slot.end()) {
      out[it->second] += static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  return out;
}

bool SpanLog::write_chrome_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    const std::string& run =
        s.run >= 0 ? runs_[static_cast<std::size_t>(s.run)] : std::string();
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%d,\"run\":\"%s\"}}\n",
                 i == 0 ? "" : ",",
                 names_[static_cast<std::size_t>(s.name)].c_str(),
                 static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                 s.parent, run.c_str());
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
