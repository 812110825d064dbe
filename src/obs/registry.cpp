#include "obs/registry.hpp"

#include <algorithm>
#include <memory>
#include <utility>

namespace rica::obs {

Counter& Registry::counter(const std::string& name) {
  auto& e = entries_[name];
  e = Entry{};
  e.kind = StatKind::kCounter;
  e.counter = std::make_unique<Counter>();
  return *e.counter;
}

Gauge& Registry::gauge(const std::string& name) {
  auto& e = entries_[name];
  e = Entry{};
  e.kind = StatKind::kGauge;
  e.gauge = std::make_unique<Gauge>();
  return *e.gauge;
}

Counter* Registry::find_counter(const std::string& name) {
  const auto it = entries_.find(name);
  return it == entries_.end() ? nullptr : it->second.counter.get();
}

void Registry::erase(const std::string& name) { entries_.erase(name); }

void Registry::counter_fn(const std::string& name, std::function<double()> fn) {
  auto& e = entries_[name];
  e = Entry{};
  e.kind = StatKind::kCounter;
  e.fn = std::move(fn);
}

void Registry::gauge_fn(const std::string& name, std::function<double()> fn) {
  auto& e = entries_[name];
  e = Entry{};
  e.kind = StatKind::kGauge;
  e.fn = std::move(fn);
}

LogHistogram& Registry::histogram(const std::string& name) {
  auto& slot = histograms_[name];
  slot = std::make_unique<LogHistogram>();
  return *slot;
}

std::map<std::string, LogHistogram> Registry::histogram_snapshot() const {
  std::map<std::string, LogHistogram> out;
  for (const auto& [name, h] : histograms_) out.emplace(name, *h);
  return out;
}

std::vector<Sample> Registry::snapshot() const {
  std::vector<Sample> out;
  out.reserve(entries_.size());
  for (const auto& [name, e] : entries_) {
    double v = 0.0;
    if (e.counter) {
      v = static_cast<double>(e.counter->value());
    } else if (e.gauge) {
      v = e.gauge->value();
    } else if (e.fn) {
      v = e.fn();
    }
    out.push_back(Sample{name, e.kind, v});
  }
  return out;  // std::map iteration is already name-sorted
}

double Registry::read(const std::string& name) const {
  const auto it = entries_.find(name);
  if (it == entries_.end()) return 0.0;
  const auto& e = it->second;
  if (e.counter) return static_cast<double>(e.counter->value());
  if (e.gauge) return e.gauge->value();
  if (e.fn) return e.fn();
  return 0.0;
}

namespace {
void fold_one(std::map<std::string, Sample>& into, const Sample& s) {
  auto [it, inserted] = into.try_emplace(s.name, s);
  if (inserted) return;
  if (s.kind == StatKind::kCounter) {
    it->second.value += s.value;
  } else {
    it->second.value = std::max(it->second.value, s.value);
  }
}
}  // namespace

void fold_samples(std::map<std::string, Sample>& into,
                  const std::vector<Sample>& trial) {
  for (const auto& s : trial) fold_one(into, s);
}

void fold_samples(std::map<std::string, Sample>& into,
                  const std::map<std::string, Sample>& trial) {
  for (const auto& [name, s] : trial) fold_one(into, s);
}

}  // namespace rica::obs
