#include "estimator/training_fuser.h"

#include "common/timer.h"

namespace modis {

std::string TrainingFuser::FusedKey(uint64_t fingerprint,
                                    const std::string& key) {
  return std::to_string(fingerprint) + ":" + key;
}

TrainingFuser::Outcome TrainingFuser::Train(uint64_t fingerprint,
                                            const std::string& key,
                                            const TrainFn& train) {
  const std::string fused_key = FusedKey(fingerprint, key);
  std::shared_future<Result<Evaluation>> wait_on;
  std::promise<Result<Evaluation>> promise;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto memo_it = memo_index_.find(fused_key);
    if (memo_it != memo_index_.end()) {
      memo_lru_.splice(memo_lru_.begin(), memo_lru_, memo_it->second);
      Outcome out;
      out.result = memo_it->second->second;
      out.shared = true;
      return out;
    }
    auto it = in_flight_.find(fused_key);
    if (it != in_flight_.end()) {
      wait_on = it->second;
    } else {
      in_flight_.emplace(fused_key, promise.get_future().share());
    }
  }
  if (wait_on.valid()) {
    // Another query is training this state right now; block on its result.
    Outcome out;
    out.result = wait_on.get();
    out.shared = true;
    return out;
  }

  // Leader: run the training outside the lock. Waiters block on the future,
  // never on the mutex, so a long training stalls only its own state.
  WallTimer timer;
  Outcome out;
  out.result = train();
  out.seconds = timer.Seconds();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (out.result.ok()) {
      memo_lru_.emplace_front(fused_key, out.result);
      memo_index_[fused_key] = memo_lru_.begin();
      while (memo_lru_.size() > kMemoCapacity) {
        memo_index_.erase(memo_lru_.back().first);
        memo_lru_.pop_back();
      }
    }
    in_flight_.erase(fused_key);
  }
  promise.set_value(out.result);
  return out;
}

}  // namespace modis
