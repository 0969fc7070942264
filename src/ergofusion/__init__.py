"""Multi-stereo-camera workcell twin with graph-Laplacian landmark fusion
and real-time RULA ergonomics.

Module map:

- ``cameras``       projective camera models; stereo rigs built from the
                    left camera's pose and the left->right relative pose
- ``triangulate``   DLT assembly; the SVD reference solve of one point
                    from any number of views, and the closed-form
                    two-view least-squares solve of every rig's stereo
                    points of a frame in one ``solve_pairs(uv, projections)``
- ``fusion``        bipartite camera/landmark graph, differential coordinates,
                    prefactored anchor-regularized least squares (as the
                    pipeline feeds it, each fused landmark is the mean of
                    the rigs' estimates, up to rounding)
- ``skeleton``      stature-parameterized skeleton, reach-task animation,
                    synthetic stereo capture with observation noise
- ``rula``          joint angles, RULA worksheet scoring, posture status
- ``adaptation``    operator height estimation, stature classes, one-shot
                    robot delivery adjustment
- ``bus``           in-process publish/subscribe message bus
- ``pipeline``      camera/fusion/ergonomics/recorder node graph
- ``scenario``      YAML scenario configs
- ``recording``     on-disk run recordings (flat record streams)
- ``evaluate``      RMSE and RULA before/after reports, exports
- ``cli``           ``ergofusion`` command line front end
"""

__version__ = "0.1.0"
