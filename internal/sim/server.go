package sim

// Server is a non-preemptive FIFO single server: jobs submitted to it
// are serviced one at a time in submission order, each occupying the
// server for its service duration. It is implemented without a
// process, in O(1) per job, and is used for the RNIC execution
// pipeline and link-bandwidth models where per-job goroutines would be
// too expensive. Departures never precede earlier ones (busyUntil
// never decreases), so they queue in the server's own lane rather than
// taking an event-heap entry per queued job.
type Server struct {
	lane      lane
	busyUntil Time

	// Jobs counts submissions; Busy accumulates occupied virtual time,
	// so Busy/elapsed is the server utilization.
	Jobs uint64
	Busy Time
}

// NewServer returns an idle server bound to e.
func NewServer(e *Engine) *Server { return &Server{lane: lane{eng: e, name: "Server"}} }

// Submit enqueues a job with the given service time. done (if non-nil)
// runs when the job leaves the server. Returns the job's departure
// time.
func (s *Server) Submit(service Time, done func()) Time {
	if service < 0 {
		service = 0
	}
	start := s.lane.eng.now
	if s.busyUntil > start {
		start = s.busyUntil
	}
	s.busyUntil = start + service
	s.Jobs++
	s.Busy += service
	if done != nil {
		s.lane.push(s.busyUntil, done)
	}
	return s.busyUntil
}
