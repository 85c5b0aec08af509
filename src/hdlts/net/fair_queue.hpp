// Per-tenant weighted-fair admission queue: bounded FIFO per tenant,
// deficit-round-robin (DRR) dispatch across tenants (docs/SERVICE.md).
//
// Why DRR: the serve daemon admits submissions from many tenants and hands
// them to svc::BatchEngine one per free worker, so every other request
// waits here. A plain shared FIFO would let one flooding tenant occupy the
// whole pipeline; per-tenant queues + DRR bound both the memory
// (per_tenant_capacity each) and the bandwidth share (a tenant with weight
// w gets w units of service per round, so a light tenant is delayed by at
// most one round of the heavy tenants' quanta, never by their whole
// backlog). Every request costs one unit — requests are
// independent scheduling problems of broadly similar size, and a cheaper
// unit model keeps the dispatch order exactly reproducible in tests
// (tests/net_test.cpp pins the full DRR interleaving).
//
// The queue is NOT thread-safe: the server serialises push (event loop) and
// pop (event loop on admission, engine workers on result delivery) under
// its own mutex, and the tests drive it single threaded for determinism.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "hdlts/util/error.hpp"

namespace hdlts::net {

struct FairQueueOptions {
  /// Bound on each tenant's FIFO; pushes beyond it are rejected (the
  /// admission-control "queue full" error).
  std::size_t per_tenant_capacity = 64;
  /// Service units added to a tenant's deficit per DRR round, multiplied by
  /// the tenant's weight. 1 is the finest-grained (most interleaved) rate.
  std::uint64_t quantum = 1;
  /// Weight for tenants not named in `weights` (>= 1).
  std::uint64_t default_weight = 1;
  /// Per-tenant weight overrides (>= 1 each).
  std::vector<std::pair<std::string, std::uint64_t>> weights;
  /// Bound on distinct tenants ever seen (tenant state persists so weights
  /// and deficits survive queue-empty periods).
  std::size_t max_tenants = 1024;
};

template <typename T>
class FairQueue {
 public:
  enum class Push {
    kOk,
    kTenantFull,      ///< tenant's FIFO at capacity
    kTooManyTenants,  ///< would create a tenant beyond max_tenants
  };

  explicit FairQueue(FairQueueOptions options) : options_(std::move(options)) {
    if (options_.per_tenant_capacity == 0) {
      throw InvalidArgument("FairQueue per_tenant_capacity must be >= 1");
    }
    if (options_.quantum == 0 || options_.default_weight == 0) {
      throw InvalidArgument("FairQueue quantum and weights must be >= 1");
    }
    for (const auto& [name, weight] : options_.weights) {
      if (weight == 0) {
        throw InvalidArgument("FairQueue weight for '" + name +
                              "' must be >= 1");
      }
    }
  }

  Push push(std::string_view tenant, T item) {
    Tenant* t = find_tenant(tenant);
    if (t == nullptr) {
      if (tenants_.size() >= options_.max_tenants) {
        return Push::kTooManyTenants;
      }
      t = create_tenant(tenant);
    }
    if (t->queue.size() >= options_.per_tenant_capacity) {
      return Push::kTenantFull;
    }
    t->queue.push_back(std::move(item));
    if (!t->active) {
      t->active = true;
      active_.push_back(t);
    }
    ++total_;
    return Push::kOk;
  }

  /// Pops the next item in DRR order; false when the queue is empty.
  bool pop(std::string* tenant_out, T* item_out) {
    if (total_ == 0) return false;
    for (;;) {
      Tenant& t = *active_.front();
      if (!t.topped) {
        t.deficit += options_.quantum * t.weight;
        t.topped = true;
      }
      if (t.deficit >= 1 && !t.queue.empty()) {
        t.deficit -= 1;
        if (tenant_out != nullptr) *tenant_out = t.name;
        *item_out = std::move(t.queue.front());
        t.queue.pop_front();
        --total_;
        if (t.queue.empty()) deactivate_front();
        return true;
      }
      // Deficit exhausted (or the queue drained): end this tenant's turn.
      if (t.queue.empty()) {
        deactivate_front();
      } else {
        t.topped = false;
        active_.push_back(&t);
        active_.pop_front();
      }
    }
  }

  std::size_t size() const { return total_; }
  bool empty() const { return total_ == 0; }

  /// Queued items for one tenant (0 for tenants never seen).
  std::size_t depth(std::string_view tenant) const {
    const auto it = tenants_.find(std::string(tenant));
    return it == tenants_.end() ? 0 : it->second->queue.size();
  }

  /// The weight a tenant gets (configured override or the default).
  std::uint64_t weight_of(std::string_view tenant) const {
    for (const auto& [name, weight] : options_.weights) {
      if (name == tenant) return weight;
    }
    return options_.default_weight;
  }

  std::size_t num_tenants() const { return tenants_.size(); }

  /// (tenant, queued depth) snapshot in tenant-name order.
  std::vector<std::pair<std::string, std::size_t>> depths() const {
    std::vector<std::pair<std::string, std::size_t>> out;
    out.reserve(tenants_.size());
    for (const auto& [name, t] : tenants_) {
      out.emplace_back(name, t->queue.size());
    }
    return out;
  }

 private:
  struct Tenant {
    std::string name;
    std::uint64_t weight = 1;
    std::uint64_t deficit = 0;
    bool topped = false;  ///< deficit already topped up for the current turn
    bool active = false;  ///< member of active_
    std::deque<T> queue;
  };

  Tenant* find_tenant(std::string_view name) {
    const auto it = tenants_.find(std::string(name));
    return it == tenants_.end() ? nullptr : it->second.get();
  }

  Tenant* create_tenant(std::string_view name) {
    auto t = std::make_unique<Tenant>();
    t->name = std::string(name);
    t->weight = weight_of(name);
    Tenant* raw = t.get();
    tenants_.emplace(raw->name, std::move(t));
    return raw;
  }

  /// Removes the (drained) front tenant from the rotation; an empty tenant
  /// carries no deficit into its next busy period (standard DRR).
  void deactivate_front() {
    Tenant& t = *active_.front();
    t.deficit = 0;
    t.topped = false;
    t.active = false;
    active_.pop_front();
  }

  FairQueueOptions options_;
  std::map<std::string, std::unique_ptr<Tenant>> tenants_;
  std::deque<Tenant*> active_;
  std::size_t total_ = 0;
};

}  // namespace hdlts::net
