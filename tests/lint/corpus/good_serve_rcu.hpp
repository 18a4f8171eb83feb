// Fixture: rule S2 (afforest-serve-rcu-publication), good half.
// Reader-visible state changes only by mutating the writer-side copy and
// republishing through EpochPublisher (here via a store built on it);
// readers acquire immutable views.
// Must lint clean.
// lint-scope: serve
#pragma once

#include <cstdint>
#include <utility>

namespace afforest::serve {

template <typename Store, typename Labels>
class PublishThroughStore {
 public:
  void republish(Labels next) {
    WriterLock guard(writer_active_, "PublishThroughStore::republish");
    live_ = std::move(next);
    store_.publish(live_);
  }

  [[nodiscard]] bool connected(std::int64_t u, std::int64_t v) const {
    const auto view = store_.acquire();
    return view.labels()[u] == view.labels()[v];
  }

 private:
  std::atomic<bool> writer_active_{false};
  Store store_;
  Labels live_;
};

}  // namespace afforest::serve
