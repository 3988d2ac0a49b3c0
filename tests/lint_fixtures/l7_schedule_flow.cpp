// Fixture for spiderlint rule L7 (schedule-site-flow).
//
// schedule_at/schedule_in default their sim::Site to the immediate
// caller, so a siteless call from a private helper collapses every event
// to the helper's own line. The public entry point and the loc-forwarding
// helper are engineered false positives.
struct Site {};  // stands in for sim::Site

namespace fixture {

class Replayer {
 public:
  // Public entry point: the defaulted Site names the real caller. Must
  // NOT be flagged.
  void kick() { sim_.schedule_at(10, 0); }

  void kick_all(Site loc = {}) {
    relaunch_threaded(loc);
  }

 private:
  // Private helper, siteless call: every replayed event would hash to this
  // line. Flagged.
  void relaunch() { sim_.schedule_at(10, 0); }  // L7

  // Private helper that forwards the caller's location. Must NOT be
  // flagged.
  void relaunch_threaded(Site loc) {
    sim_.schedule_at(10, 0, loc);
  }

  // Cross-shard mailbox sends hash a site too: a siteless schedule_cross
  // from a private helper collapses them the same way. Flagged.
  void relaunch_cross(long due) { engine_.schedule_cross(0, 1, due, 0); }  // L7

  // And the loc-forwarding variant must NOT be flagged.
  void relaunch_cross_threaded(long due, Site loc) {
    engine_.schedule_cross(0, 1, due, 0, loc);
  }

  struct FakeEngine {
    void schedule_cross(int from, int to, long when, int payload) {
      (void)from;
      (void)to;
      (void)when;
      (void)payload;
    }
    void schedule_cross(int from, int to, long when, int payload,
                        Site loc) {
      (void)from;
      (void)to;
      (void)when;
      (void)payload;
      (void)loc;
    }
  };
  FakeEngine engine_;

  struct FakeSim {
    void schedule_at(long when, int payload) {
      (void)when;
      (void)payload;
    }
    void schedule_at(long when, int payload, Site loc) {
      (void)when;
      (void)payload;
      (void)loc;
    }
  };
  FakeSim sim_;
};

}  // namespace fixture
