//go:build !linux || (!amd64 && !arm64)

package udpemu

import "net"

// batchSupported: no recvmmsg/sendmmsg on this platform; every
// component runs the portable transport (IOAuto degrades, IOBatch fails
// construction).
const batchSupported = false

func newBatchConn(*net.UDPConn) (transport, error) { return nil, errBatchUnsupported }
