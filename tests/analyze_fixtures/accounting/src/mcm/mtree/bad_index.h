// Seeded guarded-accounting violations in an index directory.

namespace mcm {

class BadIndex {
 public:
  // PLANT 1: index code calling BoundedDistance directly bypasses the
  // sanctioned entry points (the avoided/computed split is lost).
  bool PruneDirect(const Obj& a, const Obj& b, double r, QueryStats* st) {
    return BoundedDistance(a, b, r) <= r && st != nullptr;
  }

  // PLANT 2: a sanctioned call that passes a null QueryStats charges the
  // evaluation to nobody.
  bool PruneUncharged(const Obj& a, const Obj& b, double r) {
    const auto eval = PrepareQuery(metric_, a);
    return GuardedDistanceWithin(chain_, 8, stored_, eval, b, r, nullptr);
  }

  // PLANT 3: two direct metric evaluations, only one ledger tick.
  double TwoForOne(const Obj& a, const Obj& b, QueryStats* st) {
    const double d1 = metric_(a, b);
    const double d2 = metric_(b, a);
    ++st->distance_computations;
    return d1 + d2;
  }

  // Clean: one evaluation, one tick (the Dist()-helper discipline).
  double Balanced(const Obj& a, const Obj& b, QueryStats* st) {
    ++st->distance_computations;
    return metric_(a, b);
  }

  // PLANT 5: an evaluator call is a distance evaluation like a metric
  // call; this one is never charged.
  double UnchargedEvaluator(const Obj& q, const Obj& x, QueryStats* st) {
    const auto eval = PrepareQuery(metric_, q);
    return st != nullptr ? eval(x) : 0.0;
  }

  // PLANT 6: evaluators declared by type, called through a subscript: two
  // evaluations, one tick.
  double TwoEvaluatorsForOne(
      const std::vector<QueryEvaluator<Metric, Obj>>& evals, const Obj& x,
      QueryStats* st) {
    ++st->distance_computations;
    return evals[0](x) + evals[1](x);
  }

  // Clean: a typed evaluator, one evaluation, one tick; and an evaluator
  // handed to a sanctioned entry point, which charges it.
  double BalancedEvaluator(const QueryEvaluator<Metric, Obj>& eval,
                           const Obj& x, QueryStats* st) {
    ++st->distance_computations;
    return eval(x);
  }
  double SanctionedEvaluator(const Obj& q, const Obj& x, double r,
                             QueryStats* st) {
    const auto eval = PrepareQuery(metric_, q);
    return CountedDistanceWithin(eval, x, r, st);
  }

 private:
  Metric metric_;
  WitnessChain chain_;
  StoredFn stored_;
};

// PLANT 4: a shadow definition of a sanctioned entry point outside
// src/mcm/engine/witness.h forks the accounting ledger.
inline bool GuardedDistanceWithin(const Eval& eval, const Obj& x, double r,
                                  QueryStats* st) {
  return eval(x) <= r && st != nullptr;
}

}  // namespace mcm
