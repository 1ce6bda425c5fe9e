package radiobcast

// WithReferenceEngine runs on the engine's dense reference loop, which
// steps every node every round and ignores Waker hints. Outcomes are
// bit-identical to the default engine; the differential tests use it as
// their oracle. It exists only in test builds.
func WithReferenceEngine() Option { return func(c *Config) { c.reference = true } }
