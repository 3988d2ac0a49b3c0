// Capture-parser edge cases for spiderlint L12.
//
// Every construct here is engineered to look like a hazardous capture to a
// naive bracket-matcher: subscripts in parallel_for arguments, attributes,
// structured bindings, template lambdas, nested lambdas, moves out of
// member state, and a capture list the parser cannot understand. None may
// fire — a misparse must degrade to a missed finding, never a false one.
#include <utility>
#include <vector>

#define CAPTURE_NOTHING()

namespace fixture {

template <typename Fn>
void parallel_for(long n, Fn fn);

class Edges {
 public:
  void run() {
    // A subscript on member state in an argument list is not a capture
    // (and not a closure).
    parallel_for(ticks_[0], CAPTURE_NOTHING());

    // An attribute is not a lambda introducer.
    [[maybe_unused]] long first = ticks_[0];

    // A structured binding is not a capture list.
    auto& [lo, hi] = range_;

    // Value init-capture moves the buffer out: the closure owns it.
    parallel_for(lo, [buf = std::move(spare_)](long) { (void)buf.size(); });

    // Template lambda with specifiers: parses; the value default copies
    // and its body touches no member.
    parallel_for(hi, [=]<typename T>(T t) mutable noexcept { (void)t; });

    // Nested lambda: the inner default-ref captures only the outer
    // closure's locals.
    parallel_for(first, [lo](long) {
      long acc = 0;
      auto inner = [&] { acc += lo; };
      inner();
    });

    // A macro in the capture list defeats the parser: the lambda is marked
    // unparsed and skipped (missed finding, never a false one).
    parallel_for(10, [CAPTURE_NOTHING()](long) { ticks_.clear(); });
  }

 private:
  std::vector<long> ticks_;
  std::vector<int> spare_;
  std::pair<long, long> range_;
};

}  // namespace fixture
