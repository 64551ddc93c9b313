// Bridges the duck-typed template scheme concept (net/simulator.h) onto the
// abstract rtr::Scheme interface (net/scheme.h).
//
// Any type providing the template concept -- a concrete Header, make_packet,
// prepare_return, forward, header_bits, table_stats, name -- can be wrapped
// without modification; stretch_bound() and audit() are picked up when the
// wrapped type provides them.  Scheme::simulate is the template walk over
// the wrapped scheme, and impl() hands out the same shared instance, so a
// caller holding the concrete type walks the very tables the registry
// serves (tests/scheme_registry_test.cpp pins the two routes equal).
#ifndef RTR_NET_SCHEME_ADAPTER_H
#define RTR_NET_SCHEME_ADAPTER_H

#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "net/scheme.h"

namespace rtr {

template <TemplatedScheme S>
class TemplateSchemeAdapter final : public Scheme {
 public:
  /// `retained` pins anything the wrapped scheme references but does not own
  /// (typically the BuildContext's graph and metric), so the adapter is safe
  /// to use after its builder scope is gone.
  explicit TemplateSchemeAdapter(
      std::shared_ptr<const S> impl,
      std::vector<std::shared_ptr<const void>> retained = {})
      : impl_(std::move(impl)), retained_(std::move(retained)) {
    if (impl_ == nullptr) {
      throw std::invalid_argument("TemplateSchemeAdapter: null scheme");
    }
  }

  [[nodiscard]] std::string name() const override { return impl_->name(); }

  [[nodiscard]] TableStats table_stats() const override {
    return impl_->table_stats();
  }

  [[nodiscard]] RouteResult simulate(const Digraph& g, NodeId src, NodeId dst,
                                     NodeName dst_name) const override {
    return simulate_roundtrip(g, *impl_, src, dst, dst_name);
  }

  [[nodiscard]] double stretch_bound() const override {
    if constexpr (requires(const S& s) { s.stretch_bound(); }) {
      return impl_->stretch_bound();
    } else {
      return unbounded_stretch();
    }
  }

  void audit(AuditReport& report) const override {
    if constexpr (requires(const S& s, AuditReport& r) { s.audit(r); }) {
      impl_->audit(report);
    } else {
      Scheme::audit(report);  // visible placeholder entry
    }
  }

  /// The wrapped concrete scheme (template walks over the same tables).
  [[nodiscard]] const S& impl() const { return *impl_; }
  [[nodiscard]] const std::shared_ptr<const S>& impl_ptr() const {
    return impl_;
  }

 private:
  std::shared_ptr<const S> impl_;
  std::vector<std::shared_ptr<const void>> retained_;
};

/// Wraps a concrete scheme into a shared abstract one; `retained` pins the
/// graph/metric the scheme references (see the adapter constructor).
template <TemplatedScheme S>
[[nodiscard]] std::shared_ptr<const TemplateSchemeAdapter<S>> adapt_scheme(
    std::shared_ptr<const S> impl,
    std::vector<std::shared_ptr<const void>> retained = {}) {
  return std::make_shared<const TemplateSchemeAdapter<S>>(std::move(impl),
                                                          std::move(retained));
}

/// Builds S in place and wraps it.
template <TemplatedScheme S, typename... Args>
[[nodiscard]] std::shared_ptr<const TemplateSchemeAdapter<S>> make_adapted_scheme(
    Args&&... args) {
  return adapt_scheme(std::make_shared<const S>(std::forward<Args>(args)...));
}

}  // namespace rtr

#endif  // RTR_NET_SCHEME_ADAPTER_H
