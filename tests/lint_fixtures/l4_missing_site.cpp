// Fixture for spiderlint rule L4 (replay-site).
//
// Linted as if it lived under src/: a bare schedule() call that carries no
// scheduling site (sim::Site / site hash) fires, and so does a
// fault-injection entry point whose parameter list takes an Injection or
// FaultPlan payload but no site parameter.
namespace fixture {

struct Queue {
  void schedule(long when, int id, int site);
};

inline void arm(Queue& q) {
  q.schedule(100, 1);
}

struct Injection {};
struct FaultPlan {};

struct Injector {
  // Siteless injection entry points: both fire.
  void inject(const Injection& injection);
  void arm(const FaultPlan& plan);
  // Carrying the site (Site or hash) keeps them clean.
  void inject(const Injection& injection, unsigned long long site);
  void arm(const FaultPlan& plan, int loc);
};

}  // namespace fixture
