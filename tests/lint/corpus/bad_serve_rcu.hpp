// Fixture: rule S2 (afforest-serve-rcu-publication), bad half.
// Roll-your-own RCU: an atomic published pointer outside EpochPublisher,
// direct access to a published-snapshot field, and an in-place store into
// published snapshot labels all flag.
// lint-scope: serve
#pragma once

#include <atomic>

namespace afforest::serve {

struct Snapshot {
  int epoch = 0;
};

class HandRolledStore {
 public:
  void swap_in(Snapshot* next) {
    std::atomic<Snapshot*> slot{next};  // BAD(afforest-serve-rcu-publication)
    slot.store(next);
  }

  Snapshot* read_side() {
    return published_;  // BAD(afforest-serve-rcu-publication)
  }

  template <typename View>
  void patch_published(View& view, int v, int root) {
    view.labels()[v] = root;  // BAD(afforest-serve-rcu-publication)
  }
};

}  // namespace afforest::serve
