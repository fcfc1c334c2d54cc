package iomodel

// SetArrival stamps a transfer's arrival time, which Submit sets on the
// device's own transfers. The token-device reference (package
// iomodel_test) queues transfers of its own, and Least-Waste reads their
// arrivals.
func SetArrival(t *Transfer, at float64) { t.arrival = at }
